package sim_test

// Phase B admits a protocol's intents in ascending receiver order: a
// protocol that returns them in any other order, with every PRR left to
// the engine, floods exactly like one that returns them sorted with the
// PRRs filled in.

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

// asFunc adapts p to a sim.FuncProtocol whose intents pass through edit.
func asFunc(p sim.Protocol, edit func(in []sim.Intent) []sim.Intent) *sim.FuncProtocol {
	return &sim.FuncProtocol{
		ProtocolName: p.Name(),
		ResetFunc:    p.Reset,
		IntentsFunc:  func(w *sim.World) []sim.Intent { return edit(p.Intents(w)) },
		Collisions:   p.CollisionsApply(),
		Overhearing:  p.Overhears(),
	}
}

// shuffleReceivers interleaves the receiver groups of the ascending
// intents in at random, keeping each receiver's intents in their order,
// and zeroes every PRR. It reports whether the order changed.
func shuffleReceivers(r *rngutil.Stream, in []sim.Intent) ([]sim.Intent, bool) {
	var groups [][]sim.Intent
	for i, x := range in {
		if i == 0 || x.To != in[i-1].To {
			groups = append(groups, nil)
		}
		x.PRR = 0
		groups[len(groups)-1] = append(groups[len(groups)-1], x)
	}
	out := make([]sim.Intent, 0, len(in))
	for len(groups) > 0 {
		k := r.Intn(len(groups))
		out = append(out, groups[k][0])
		if groups[k] = groups[k][1:]; len(groups[k]) == 0 {
			groups = slices.Delete(groups, k, k+1)
		}
	}
	return out, !slices.IsSortedFunc(out, func(a, b sim.Intent) int { return a.To - b.To })
}

func tracedRun(t *testing.T, cfg sim.Config) (*sim.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := tracebin.NewWriter(&buf)
	cfg.Observer = w
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestUnsortedIntentsAdmittedSorted runs every flood protocol through a
// FuncProtocol twice: once returning each slot's intents sorted with
// their link PRRs filled in from the CSR, once interleaving the receiver
// groups at random with every PRR 0. Result and trace bytes must match,
// with sync errors on so that admission's draw order shows.
func TestUnsortedIntentsAdmittedSorted(t *testing.T) {
	g := topology.Grid(6, 6, 0.8)
	csr := g.CSR()
	for _, name := range flood.Names() {
		cfg := sim.Config{
			Graph:         g,
			Schedules:     uniform(g.N(), 10, 42),
			M:             3,
			Coverage:      0.99,
			Seed:          5,
			MaxSlots:      200000,
			SyncErrorProb: 0.05,
		}
		p, _ := flood.New(name)
		cfg.Protocol = asFunc(p, func(in []sim.Intent) []sim.Intent {
			out := slices.Clone(in)
			for i := range out {
				out[i].PRR = csr.PRROf(out[i].From, out[i].To)
			}
			return out
		})
		want, wantTrace := tracedRun(t, cfg)

		r := rngutil.New(99)
		shuffled := 0
		p, _ = flood.New(name)
		cfg.Protocol = asFunc(p, func(in []sim.Intent) []sim.Intent {
			out, moved := shuffleReceivers(r, in)
			if moved {
				shuffled++
			}
			return out
		})
		got, gotTrace := tracedRun(t, cfg)
		if shuffled == 0 {
			t.Fatalf("%s: no slot's intents were reordered", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result of the shuffled emission differs from the sorted one", name)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("%s: trace of the shuffled emission differs from the sorted one", name)
		}
	}
}
