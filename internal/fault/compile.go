package fault

import (
	"math"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/topology"
)

// neverFlips marks a chain state with exit probability 0: the sojourn is
// infinite and the chain is effectively static from then on.
const neverFlips = math.MaxInt64

// linkChain is one link's Gilbert–Elliott state, advanced lazily. Rather
// than stepping the chain every slot, the next state flip is pre-drawn as
// a geometric sojourn length from the link's private stream, so the state
// at slot t costs O(flips), is independent of how often (or on which
// slots) the link is queried, so the engine's skipping of empty schedule
// offsets cannot change it.
type linkChain struct {
	rng      *rngutil.Stream
	pgb, pbg float64
	scale    float64 // PRR multiplier in the bad state
	bad      bool
	nextFlip int64  // absolute slot of the next state change
	flips    *int64 // the owning Injector's shared flip counter
}

// sojourn returns the number of slots the chain stays in a state whose
// per-slot exit probability is p (support {1, 2, ...}), or neverFlips for
// p = 0.
func (c *linkChain) sojourn(p float64) int64 {
	if p <= 0 {
		return neverFlips
	}
	return 1 + int64(c.rng.Geometric(p))
}

// scaleAt advances the chain to slot t and returns its PRR multiplier.
// Queries must be non-decreasing in t, which the engine guarantees (it
// queries only at the current slot).
func (c *linkChain) scaleAt(t int64) float64 {
	for c.nextFlip <= t {
		at := c.nextFlip
		c.bad = !c.bad
		*c.flips++
		p := c.pgb
		if c.bad {
			p = c.pbg
		}
		// neverFlips is an absolute slot, not a sojourn length: adding it to
		// `at` would overflow int64 and make a one-sided chain (exit
		// probability 0 in the new state) oscillate instead of absorbing.
		if s := c.sojourn(p); s == neverFlips {
			c.nextFlip = neverFlips
		} else {
			c.nextFlip = at + s
		}
	}
	if c.bad {
		return c.scale
	}
	return 1
}

// Event is one compiled churn transition the engine applies at slot At:
// Up = false crashes the node, Up = true reboots it.
type Event struct {
	At   int64
	Node int
	Up   bool
}

// Injector is a Schedule compiled against one topology and one run's fault
// RNG stream. It is owned by a single engine run and is not safe for
// concurrent use; compile a fresh Injector per run.
type Injector struct {
	chains map[uint64]*linkChain
	events []Event
	jams   []compiledJam
	// flips counts Gilbert–Elliott state transitions taken by every
	// governed chain over the run — a plain int64 (the injector is
	// single-run, single-goroutine) that the engine periodically drains
	// into its telemetry registry as fault.chain_flips.
	flips int64
}

// compiledJam is a jam window with its node set resolved to a bitset.
type compiledJam struct {
	from, until int64
	member      []uint64
}

// linkKey canonicalizes an undirected link to a map key.
func linkKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// Compile resolves the schedule against a topology: it selects the
// governed links, draws every chain's initial state from per-link
// sub-streams of rng, resolves jam discs to node sets, and orders the
// churn timeline. The result is deterministic in (schedule, graph, rng
// seed). The caller is expected to have validated the schedule; rng must
// be a stream dedicated to fault injection (the engine derives one from
// the run seed) so fault randomness never aliases other simulation
// streams.
func (s *Schedule) Compile(g *topology.Graph, rng *rngutil.Stream) *Injector {
	inj := &Injector{}
	// Link chains: iterate links in canonical order so initial-state draws
	// are independent of adjacency layout; each link draws from its own
	// sub-stream, so the draw order is immaterial anyway.
	for _, e := range g.Links() {
		var rule *LinkRule
		for i := range s.Links {
			if s.Links[i].matches(e.U, e.V, e.PRR) {
				rule = &s.Links[i]
				break
			}
		}
		if rule == nil {
			continue
		}
		key := linkKey(e.U, e.V)
		lr := rng.Sub(key)
		c := &linkChain{
			rng:   lr,
			pgb:   rule.PGB,
			pbg:   rule.PBG,
			scale: rule.BadScale,
			bad:   lr.Bool(rule.StartBad),
			flips: &inj.flips,
		}
		if c.bad {
			c.nextFlip = c.sojourn(c.pbg)
		} else {
			c.nextFlip = c.sojourn(c.pgb)
		}
		if c.bad || c.nextFlip != neverFlips {
			if inj.chains == nil {
				inj.chains = make(map[uint64]*linkChain)
			}
			inj.chains[key] = c
		}
	}
	// Churn timeline, ordered by slot (ties: node, crash before reboot —
	// irrelevant in valid schedules, where intervals cannot touch).
	for _, c := range s.Crashes {
		inj.events = append(inj.events, Event{At: c.At, Node: c.Node, Up: false})
		if c.RebootAt >= 0 {
			inj.events = append(inj.events, Event{At: c.RebootAt, Node: c.Node, Up: true})
		}
	}
	sortEvents(inj.events)
	// Jam node sets.
	words := (g.N() + 63) / 64
	for _, j := range s.Jams {
		cj := compiledJam{from: j.From, until: j.Until, member: make([]uint64, words)}
		for _, v := range j.Nodes {
			cj.member[v>>6] |= 1 << (uint(v) & 63)
		}
		if j.Radius > 0 {
			center := topology.Point{X: j.X, Y: j.Y}
			for v, p := range g.Pos {
				if p.Dist(center) <= j.Radius {
					cj.member[v>>6] |= 1 << (uint(v) & 63)
				}
			}
		}
		inj.jams = append(inj.jams, cj)
	}
	return inj
}

// sortEvents orders the churn timeline by (At, Node, crash-first) with a
// simple insertion sort — fault timelines are tiny.
func sortEvents(ev []Event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && less(ev[j], ev[j-1]); j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

// less orders two churn events.
func less(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return !a.Up && b.Up
}

// Events returns the compiled churn timeline in slot order. The engine
// applies each event at the top of its slot. The slice is owned by the
// injector.
func (in *Injector) Events() []Event { return in.events }

// LinkScale returns the PRR multiplier of link (u, v) at slot t: 1 for
// ungoverned links or chains in the good state, the rule's BadScale
// otherwise. Queries must be non-decreasing in t.
func (in *Injector) LinkScale(t int64, u, v int) float64 {
	if in.chains == nil {
		return 1
	}
	c, ok := in.chains[linkKey(u, v)]
	if !ok {
		return 1
	}
	return c.scaleAt(t)
}

// Sync advances every link chain to slot t. After Sync(t) returns, LinkScale
// queries at the same t are read-only (the lazy advance in scaleAt has
// nothing left to do), which is what makes them safe from the sharded
// engine's concurrent delivery workers. Chains advance on private per-link
// streams, so the map iteration order here does not affect any draw. Sync
// may advance chains past flips a lazy caller would never have reached
// (links that are never queried), so ChainFlips can read higher under
// Sync-based runs; the flip count is telemetry, not part of simulation
// results, and is still deterministic for a fixed (schedule, graph, seed).
// Calls must be non-decreasing in t, like LinkScale.
func (in *Injector) Sync(t int64) {
	for _, c := range in.chains {
		c.scaleAt(t)
	}
}

// ChainFlips returns how many Gilbert–Elliott state transitions the
// injector's link chains have taken so far. Chains advance lazily, so the
// count covers each chain up to the last slot it was queried at; it is
// monotone over a run. Purely observational — reading it never advances a
// chain.
func (in *Injector) ChainFlips() int64 { return in.flips }

// Jammed reports whether node is inside an active jam region at slot t.
func (in *Injector) Jammed(t int64, node int) bool {
	for i := range in.jams {
		j := &in.jams[i]
		if t >= j.from && t < j.until && j.member[node>>6]&(1<<(uint(node)&63)) != 0 {
			return true
		}
	}
	return false
}
