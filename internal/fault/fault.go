// Package fault provides deterministic, scripted fault injection for the
// sim engine: time-varying link degradation, node crash/reboot churn, and
// transient regional outages. A Schedule is a declarative spec — written in
// Go or loaded from a small JSON file — that the engine compiles once per
// run into an Injector whose behavior is a pure function of the run seed
// and the spec, so faulted runs stay bit-for-bit reproducible.
//
// Three fault families are modeled:
//
//   - LinkRule: Gilbert–Elliott bursty links. Each governed link carries a
//     two-state (good/bad) Markov chain with per-slot transition
//     probabilities PGB (good→bad) and PBG (bad→good); in the bad state the
//     link's PRR is multiplied by BadScale. With PGB = PBG = 0 the chain
//     never moves and the rule reduces to the paper's Section IV-B static
//     k-class loss (a fixed PRR down-scaling of a link class).
//   - Crash: node churn. A crashed node's radio is off — it neither wakes,
//     transmits, nor receives — and it loses every buffered packet, so on
//     reboot the flood must re-disseminate to it. The source (node 0) may
//     not crash: injections are application-layer events that the model
//     keeps available.
//   - Jam: a transient regional outage. During [From, Until), every node in
//     the jammed set (an explicit list and/or a disc over node positions)
//     is deafened: transmissions targeting it fail deterministically and it
//     cannot overhear. Senders inside the region still transmit — jamming
//     models receiver-side interference.
//
// Randomness is stream-isolated via rngutil: the engine hands Compile a
// dedicated "fault" sub-stream of the run seed, and every governed link
// derives its own private chain stream from it. Attaching a fault schedule
// therefore never perturbs the engine's loss/sync/protocol streams, and an
// empty Schedule reproduces the unfaulted run exactly.
package fault

import (
	"fmt"

	"ldcflood/internal/topology"
)

// Schedule is a declarative fault-injection spec for one run. The zero
// value injects nothing. A Schedule is immutable data: one instance may be
// shared by many concurrent runs (each run compiles its own Injector).
type Schedule struct {
	// Links lists Gilbert–Elliott degradation rules. The first rule whose
	// selector matches a link governs it; later rules never override
	// earlier ones.
	Links []LinkRule `json:"links,omitempty"`
	// Crashes lists node crash/reboot events.
	Crashes []Crash `json:"crashes,omitempty"`
	// Jams lists transient regional outages.
	Jams []Jam `json:"jams,omitempty"`
}

// LinkRule applies a Gilbert–Elliott two-state chain to a class of links.
// A rule selects its links either by base-PRR class or by explicit pair
// list: with Pairs empty, it governs every link whose base PRR falls inside
// [MinPRR, MaxPRR] (MaxPRR = 0 is interpreted as 1, so the zero selector
// matches every link); with Pairs set, it governs exactly those links and
// the class bounds are ignored. Use two rules to combine the forms.
type LinkRule struct {
	// MinPRR/MaxPRR select the governed link class by base PRR — the
	// paper's k-class partition. MaxPRR = 0 means 1. Ignored when Pairs is
	// non-empty.
	MinPRR float64 `json:"min_prr,omitempty"`
	MaxPRR float64 `json:"max_prr,omitempty"`
	// Pairs selects explicit undirected links [u, v], regardless of their
	// PRR, replacing the class selector.
	Pairs [][2]int `json:"pairs,omitempty"`
	// PGB is the per-slot good→bad transition probability.
	PGB float64 `json:"pgb,omitempty"`
	// PBG is the per-slot bad→good transition probability.
	PBG float64 `json:"pbg,omitempty"`
	// BadScale multiplies the link PRR while the chain is in the bad state;
	// 0 silences the link entirely, 1 makes the bad state harmless.
	BadScale float64 `json:"bad_scale"`
	// StartBad is the probability that the chain starts in the bad state.
	// With PGB = PBG = 0 it selects a static random subset of the class to
	// degrade; 1 degrades the whole class deterministically.
	StartBad float64 `json:"start_bad,omitempty"`
}

// maxPRR returns the selector's upper PRR bound with the 0-means-1 default
// applied.
func (r *LinkRule) maxPRR() float64 {
	if r.MaxPRR == 0 {
		return 1
	}
	return r.MaxPRR
}

// matches reports whether the rule governs the undirected link (u, v) with
// base PRR prr.
func (r *LinkRule) matches(u, v int, prr float64) bool {
	if len(r.Pairs) == 0 {
		return prr >= r.MinPRR && prr <= r.maxPRR()
	}
	for _, p := range r.Pairs {
		if (p[0] == u && p[1] == v) || (p[0] == v && p[1] == u) {
			return true
		}
	}
	return false
}

// Crash schedules one crash (and optional reboot) of a node. While crashed
// the node is dormant on every slot and holds no packets; at RebootAt it
// resumes its periodic working schedule with an empty buffer.
type Crash struct {
	// Node is the crashing node. Node 0 (the source) is not allowed.
	Node int `json:"node"`
	// At is the slot at which the crash takes effect.
	At int64 `json:"at"`
	// RebootAt is the slot at which the node rejoins, or -1 (any negative
	// value) for a permanent failure — the JSON default when reboot_at is
	// omitted.
	RebootAt int64 `json:"reboot_at"`
}

// Jam deafens a region during [From, Until): transmissions to jammed nodes
// fail deterministically (no loss-RNG draw is consumed) and jammed nodes
// cannot overhear. The jammed set is the union of Nodes and, when Radius
// is positive, every node whose position lies within Radius of (X, Y) —
// the disc form requires the graph to carry positions.
type Jam struct {
	// From is the first jammed slot.
	From int64 `json:"from"`
	// Until is the first slot after the outage.
	Until int64 `json:"until"`
	// X/Y/Radius describe the jamming disc in the deployment's coordinate
	// system. Radius 0 disables the disc.
	X      float64 `json:"x,omitempty"`
	Y      float64 `json:"y,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Nodes lists explicitly jammed nodes, unioned with the disc.
	Nodes []int `json:"nodes,omitempty"`
}

// Validate checks the schedule against a topology. It returns the first
// problem found, or nil. The sim engine validates the configured schedule
// before every run.
func (s *Schedule) Validate(g *topology.Graph) error {
	if s == nil {
		return nil
	}
	if g == nil {
		return fmt.Errorf("fault: nil graph")
	}
	n := g.N()
	for i, r := range s.Links {
		if r.MinPRR < 0 || r.MinPRR > 1 || r.maxPRR() < r.MinPRR || r.maxPRR() > 1 {
			return fmt.Errorf("fault: link rule %d PRR selector [%v, %v] invalid", i, r.MinPRR, r.maxPRR())
		}
		if r.PGB < 0 || r.PGB >= 1 || r.PBG < 0 || r.PBG >= 1 {
			return fmt.Errorf("fault: link rule %d transition probabilities (%v, %v) outside [0, 1)", i, r.PGB, r.PBG)
		}
		if r.BadScale < 0 || r.BadScale > 1 {
			return fmt.Errorf("fault: link rule %d bad-state scale %v outside [0, 1]", i, r.BadScale)
		}
		if r.StartBad < 0 || r.StartBad > 1 {
			return fmt.Errorf("fault: link rule %d start-bad probability %v outside [0, 1]", i, r.StartBad)
		}
		for _, p := range r.Pairs {
			if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
				return fmt.Errorf("fault: link rule %d pair %v outside [0, %d)", i, p, n)
			}
			if !g.HasLink(p[0], p[1]) {
				return fmt.Errorf("fault: link rule %d pair %v is not a link", i, p)
			}
		}
	}
	// Per-node crash intervals must not overlap: a node cannot crash again
	// before its previous reboot.
	type span struct {
		at, reboot int64
	}
	spans := make(map[int][]span)
	for i, c := range s.Crashes {
		if c.Node <= 0 || c.Node >= n {
			if c.Node == 0 {
				return fmt.Errorf("fault: crash %d targets the source (node 0)", i)
			}
			return fmt.Errorf("fault: crash %d node %d outside [1, %d)", i, c.Node, n)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash %d at negative slot %d", i, c.At)
		}
		if c.RebootAt >= 0 && c.RebootAt <= c.At {
			return fmt.Errorf("fault: crash %d reboots at slot %d, not after its crash at %d", i, c.RebootAt, c.At)
		}
		spans[c.Node] = append(spans[c.Node], span{c.At, c.RebootAt})
	}
	for node, ss := range spans {
		for i, a := range ss {
			for _, b := range ss[i+1:] {
				aEnd, bEnd := a.reboot, b.reboot
				overlap := (aEnd < 0 || b.at < aEnd) && (bEnd < 0 || a.at < bEnd)
				if overlap {
					return fmt.Errorf("fault: node %d has overlapping crash intervals", node)
				}
			}
		}
	}
	for i, j := range s.Jams {
		if j.From < 0 || j.Until <= j.From {
			return fmt.Errorf("fault: jam %d window [%d, %d) invalid", i, j.From, j.Until)
		}
		if j.Radius < 0 {
			return fmt.Errorf("fault: jam %d negative radius", i)
		}
		if j.Radius > 0 && g.Pos == nil {
			return fmt.Errorf("fault: jam %d uses a disc but the graph has no positions", i)
		}
		if j.Radius == 0 && len(j.Nodes) == 0 {
			return fmt.Errorf("fault: jam %d selects no nodes (no disc, no list)", i)
		}
		for _, v := range j.Nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("fault: jam %d node %d outside [0, %d)", i, v, n)
			}
		}
	}
	return nil
}
