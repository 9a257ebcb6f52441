package flood

// OPT and DBAO decide by walking rank-ordered neighbor rows. This file
// keeps the candidate-list deciders they replaced — every needed holder
// listed with its keyed draws, a linear max for the winner and a sorted
// hidden set — as a reference, and requires the rank walk to flood
// byte-identically.

import (
	"fmt"
	"slices"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// listCand is one listed candidate sender: its node, its link PRR and
// its keyed hidden-fire uniform.
type listCand struct {
	node int
	prr  float64
	u    float64
}

// listHolders lists every neighbor of r holding a packet r needs and not
// deferring, in row order, with its keyed hidden-fire uniform.
func listHolders(w *sim.World, csr *topology.CSR, r int, slot *rngutil.Stream) []listCand {
	if !w.NeedsAnything(r) {
		return nil
	}
	var out []listCand
	row, prrs := csr.Row(r)
	for i, s32 := range row {
		s := int(s32)
		if w.AnyNeeded(s, r) && !deferKeyed(w, s, slot) {
			out = append(out, listCand{node: s, prr: prrs[i], u: pairU(slot, r, s)})
		}
	}
	return out
}

// dbaoRank orders candidates by the deterministic back-off rank: best link
// quality first, node id breaking ties.
func dbaoRank(a, b listCand) int {
	if a.prr != b.prr {
		if a.prr > b.prr {
			return -1
		}
		return 1
	}
	return a.node - b.node
}

// bestFree returns the index of the best-ranked unassigned candidate, or
// -1.
func bestFree(assigned []bool, cands []listCand) int {
	wi := -1
	for j := range cands {
		if !assigned[cands[j].node] && (wi < 0 || dbaoRank(cands[j], cands[wi]) < 0) {
			wi = j
		}
	}
	return wi
}

// listOPT is the candidate-list OPT reference: every neighbor holding a
// needed packet and not deferring is listed in row order, and the
// best-ranked unassigned candidate wins.
type listOPT struct {
	*OPT
	csr *topology.CSR
}

func (l *listOPT) Reset(w *sim.World) {
	l.OPT.Reset(w)
	l.csr = w.Graph.CSR()
}

func (l *listOPT) Intents(w *sim.World) []sim.Intent {
	o := l.OPT
	slot := w.ProtoStream()
	var out []sim.Intent
	for r := range w.Graph.N() {
		if !w.IsAwake(r) {
			continue
		}
		cands := listHolders(w, l.csr, r, &slot)
		if wi := bestFree(o.assigned, cands); wi >= 0 {
			o.assigned[cands[wi].node] = true
			out = append(out, sim.Intent{From: cands[wi].node, To: r, Packet: sim.PacketFCFS, PRR: cands[wi].prr})
		}
	}
	release(o.assigned, out)
	return out
}

// listDBAO is the candidate-list DBAO reference: the contenders are
// listed with their hidden-fire uniforms, the best-ranked unassigned one
// wins, and the unassigned candidates hidden from it whose uniform falls
// below HiddenFireProb fire, sorted into rank order.
type listDBAO struct {
	*DBAO
	csr *topology.CSR
}

func (l *listDBAO) Reset(w *sim.World) {
	l.DBAO.Reset(w)
	l.csr = w.Graph.CSR()
}

func (l *listDBAO) Intents(w *sim.World) []sim.Intent {
	d := l.DBAO
	slot := w.ProtoStream()
	var out []sim.Intent
	for r := range w.Graph.N() {
		if !w.IsAwake(r) {
			continue
		}
		cands := listHolders(w, l.csr, r, &slot)
		wi := bestFree(d.assigned, cands)
		if wi < 0 {
			continue
		}
		winner := cands[wi].node
		d.assigned[winner] = true
		out = append(out, sim.Intent{From: winner, To: r, Packet: sim.PacketFCFS, PRR: cands[wi].prr})
		var firing []listCand
		for j, c := range cands {
			if j == wi || d.assigned[c.node] || c.u >= d.HiddenFireProb || d.audible.has(c.node, winner) {
				continue
			}
			firing = append(firing, c)
		}
		slices.SortFunc(firing, dbaoRank)
		for _, c := range firing {
			d.assigned[c.node] = true
			out = append(out, sim.Intent{From: c.node, To: r, Packet: sim.PacketFCFS, PRR: c.prr})
		}
	}
	release(d.assigned, out)
	return out
}

// tiedPRRs are the only link qualities tiedGraph draws, so equal-PRR
// neighbors — ranked by id — are common.
var tiedPRRs = []float64{0.25, 0.5, 0.75, 1}

// tiedGraph is a connected random graph with PRRs from tiedPRRs. With
// positions, nodes sit in a 100×100 field, each linked to its nearest
// lower-id node and, with probability 0.7, to every node within 35, so
// carrier sense is distance-based; without, it is a random spanning tree
// plus up to 2n extra links, and audibility falls back to adjacency.
func tiedGraph(r *rngutil.Stream, positioned bool) *topology.Graph {
	n := 4 + r.Intn(30)
	g := topology.New(n)
	prr := func() float64 { return tiedPRRs[r.Intn(len(tiedPRRs))] }
	if !positioned {
		for v := 1; v < n; v++ {
			g.AddLink(v, r.Intn(v), prr())
		}
		for i := r.Intn(2 * n); i > 0; i-- {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasLink(u, v) {
				g.AddLink(u, v, prr())
			}
		}
		g.SortNeighbors()
		return g
	}
	g.Pos = make([]topology.Point, n)
	for i := range g.Pos {
		g.Pos[i] = topology.Point{X: 100 * r.Float64(), Y: 100 * r.Float64()}
	}
	for v := 1; v < n; v++ {
		near := 0
		for u := 1; u < v; u++ {
			if g.Pos[v].Dist(g.Pos[u]) < g.Pos[v].Dist(g.Pos[near]) {
				near = u
			}
		}
		g.AddLink(v, near, prr())
		for u := 0; u < v; u++ {
			if u != near && g.Pos[v].Dist(g.Pos[u]) <= 35 && r.Bool(0.7) {
				g.AddLink(u, v, prr())
			}
		}
	}
	g.SortNeighbors()
	return g
}

// TestRankWalkMatchesCandidateList runs OPT and DBAO against their
// candidate-list references on tied-PRR random graphs with and without
// positions, M ∈ {1, 64, 65, 130}, no faults, crash-reboot and
// Gilbert–Elliott links, every (HiddenFireProb, CSRangeFactor) pair of
// {1e-9, 0.5, 1} × {1, 1.2, 2.5} and overhearing on and off, and requires identical results and byte-identical traces. The
// graphs must give some receiver two equal-PRR neighbors, so the id
// tie-break decides real contentions.
func TestRankWalkMatchesCandidateList(t *testing.T) {
	hfps := []float64{1e-9, 0.5, 1}
	csfs := []float64{1, 1.2, 2.5}
	faultKinds := []string{"none", "crash-reboot", "gilbert-elliott"}
	cell, ties := 0, 0
	for _, m := range []int{1, 64, 65, 130} {
		for fi, fk := range faultKinds {
			for _, positioned := range []bool{true, false} {
				cell++
				seed := uint64(cell)
				r := rngutil.New(seed*104729 + uint64(m))
				g := tiedGraph(r, positioned)
				n := g.N()
				for u := 0; u < n; u++ {
					_, prrs := g.CSR().Ranked().Row(u)
					for i := 1; i < len(prrs); i++ {
						if prrs[i] == prrs[i-1] {
							ties++
						}
					}
				}
				var fs *fault.Schedule
				switch fk {
				case "crash-reboot":
					fs = &fault.Schedule{}
					crashed := map[int]bool{}
					for k := 1 + r.Intn(3); k > 0; k-- {
						node := 1 + r.Intn(n-1)
						if crashed[node] {
							continue
						}
						crashed[node] = true
						at := int64(r.Intn(2 * m))
						reboot := int64(-1)
						if r.Bool(0.7) {
							reboot = at + 1 + int64(r.Intn(300))
						}
						fs.Crashes = append(fs.Crashes, fault.Crash{Node: node, At: at, RebootAt: reboot})
					}
				case "gilbert-elliott":
					fs = &fault.Schedule{Links: []fault.LinkRule{{PGB: 0.05, PBG: 0.2, BadScale: 0.3}}}
				}
				cfg := sim.Config{
					Graph:          g,
					Schedules:      schedule.AssignUniform(n, 1+r.Intn(8), r.SubName("schedule")),
					M:              m,
					InjectInterval: 1 + r.Intn(2),
					Coverage:       1,
					Seed:           seed,
					MaxSlots:       1500,
					Faults:         fs,
				}
				hfp, csf := hfps[cell%3], csfs[(cell/3+fi)%3]
				noOverhear := (cell/2)%3 == 0
				label := fmt.Sprintf("M=%d faults=%s positioned=%v", m, fk, positioned)
				rankRes, rankTr := runWith(t, cfg, &OPT{DisableOverhearing: noOverhear})
				listRes, listTr := runWith(t, cfg, &listOPT{OPT: &OPT{DisableOverhearing: noOverhear}})
				equalResults(t, rankRes, listRes, "OPT "+label)
				equalTraces(t, rankTr, listTr, "OPT "+label)

				mk := func() *DBAO {
					return &DBAO{HiddenFireProb: hfp, CSRangeFactor: csf, DisableOverhearing: noOverhear}
				}
				label = fmt.Sprintf("%s hfp=%v cs=%v overhear=%v", label, hfp, csf, !noOverhear)
				rankRes, rankTr = runWith(t, cfg, mk())
				listRes, listTr = runWith(t, cfg, &listDBAO{DBAO: mk()})
				equalResults(t, rankRes, listRes, "DBAO "+label)
				equalTraces(t, rankTr, listTr, "DBAO "+label)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no receiver in the grid has two equal-PRR neighbors")
	}
}
