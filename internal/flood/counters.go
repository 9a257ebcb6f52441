package flood

import "ldcflood/internal/telemetry"

// suppCounters is the message/suppression accounting shared by the
// timer-driven protocols (Trickle, DFlood). Counts are mutated only in
// Intents, and every counted event is a pure function of the pre-slot
// world state, so reruns count alike (certified by
// TestProtocolCountersModeInvariant). Attaching a telemetry registry
// never affects simulation results; it only mirrors the counts live.
type suppCounters struct {
	messages   int64
	suppressed int64
	perNode    []int64

	// Per-slot dedupe of suppressed senders: a sender whose firing is
	// suppressed this slot is counted once, no matter how many receivers
	// evaluated it. seen holds the marked senders for the sparse reset.
	seen []int32
	mark []bool

	telMessages   *telemetry.Counter
	telSuppressed *telemetry.Counter
}

// reset re-dimensions the per-node state for a fresh run, preserving any
// attached telemetry instruments.
func (c *suppCounters) reset(n int) {
	c.messages, c.suppressed = 0, 0
	c.perNode = make([]int64, n)
	c.mark = make([]bool, n)
	c.seen = c.seen[:0]
}

// instrument resolves the counter instruments against reg: the shared
// flood.messages counter plus the protocol's own suppression counter.
func (c *suppCounters) instrument(reg *telemetry.Registry, suppressedName string) {
	c.telMessages = reg.Counter("flood.messages")
	c.telSuppressed = reg.Counter(suppressedName)
}

// note records one suppressed firing opportunity for sender s, deduplicated
// per slot.
func (c *suppCounters) note(s int32) {
	if c.mark[s] {
		return
	}
	c.mark[s] = true
	c.seen = append(c.seen, s)
	c.count(s)
}

// count records one suppression for node s, with no dedupe.
func (c *suppCounters) count(s int32) {
	c.suppressed++
	c.perNode[s]++
	if c.telSuppressed != nil {
		c.telSuppressed.Inc()
	}
}

// message records one emitted transmission intent.
func (c *suppCounters) message() {
	c.messages++
	if c.telMessages != nil {
		c.telMessages.Inc()
	}
}

// endSlot clears the per-slot suppression dedupe set (sparse, proportional
// to the slot's suppressed senders).
func (c *suppCounters) endSlot() {
	for _, s := range c.seen {
		c.mark[s] = false
	}
	c.seen = c.seen[:0]
}
