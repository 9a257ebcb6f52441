package metrics

// Structural access to the optional per-protocol counters the timer-driven
// flooding protocols expose (message and suppression tallies). The sim
// layer knows nothing about these; post-processing reaches them through
// small structural interfaces so internal/metrics does not import
// internal/flood.

import (
	"ldcflood/internal/sim"
	"ldcflood/internal/stats"
)

// floodCounted is the structural interface trickle/dflood satisfy.
type floodCounted interface {
	FloodCounters() (messages, suppressed int64)
}

// perNodeSuppressed is the per-node breakdown companion.
type perNodeSuppressed interface {
	SuppressedPerNode() []int64
}

// ProtocolCounters extracts the message/suppression counters from a
// protocol instance after a run. ok is false for protocols that do not
// keep counters (OPT, DBAO, OF, Naive).
func ProtocolCounters(p sim.Protocol) (messages, suppressed int64, ok bool) {
	c, ok := p.(floodCounted)
	if !ok {
		return 0, 0, false
	}
	messages, suppressed = c.FloodCounters()
	return messages, suppressed, true
}

// SuppressionSummary summarizes the per-node suppression distribution of a
// counter-keeping protocol. ok is false when the protocol exposes no
// per-node breakdown (or has not run).
func SuppressionSummary(p sim.Protocol) (stats.Summary, bool) {
	c, okC := p.(perNodeSuppressed)
	if !okC {
		return stats.Summary{}, false
	}
	per := c.SuppressedPerNode()
	if len(per) == 0 {
		return stats.Summary{}, false
	}
	xs := make([]float64, len(per))
	for i, v := range per {
		xs[i] = float64(v)
	}
	return stats.Summarize(xs), true
}
