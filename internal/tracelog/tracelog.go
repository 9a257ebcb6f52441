// Package tracelog defines the decoded form of a simulation trace and the
// offline tools that work on it. A trace is stored on disk only in the
// binary format of internal/tracebin; its reader yields the Event values
// defined here. Logger renders events as one text line each, which is what
// cmd/tracecat prints; Recorder collects them in memory; Validate and
// Summarize check and aggregate a decoded trace.
//
// Logger, Recorder and tracebin.Writer all implement sim.Observer, so any
// of them attaches to a run via sim.Config.Observer:
//
//	rec := &tracelog.Recorder{}
//	sim.Run(sim.Config{..., Observer: rec})
//	err := tracelog.Validate(rec.Events)
//
// The text layout, one event per line:
//
//	I <t> <packet>                       injection
//	T <t> <from> <to> <packet> <outcome> transmission attempt
//	O <t> <from> <node> <packet>         overheard reception
//	C <t> <packet>                       coverage reached
package tracelog

import (
	"bufio"
	"fmt"
	"io"

	"ldcflood/internal/sim"
)

// Kind discriminates event types.
type Kind byte

// Event kinds, each also the line tag of the text rendering.
const (
	// KindInject marks a packet's injection at the source node.
	KindInject Kind = 'I'
	// KindTransmit is one transmission attempt with its outcome.
	KindTransmit Kind = 'T'
	// KindOverhear is a reception by a node that already held the packet.
	KindOverhear Kind = 'O'
	// KindCovered marks a packet reaching the coverage target.
	KindCovered Kind = 'C'
)

// Event is one decoded trace record. Fields not applicable to the kind are
// zero (From/To for injections, Outcome for non-transmissions).
type Event struct {
	Kind    Kind
	T       int64
	From    int
	To      int
	Packet  int
	Outcome sim.TxOutcome
}

// Logger streams events to an io.Writer. It implements sim.Observer.
// Errors are latched: the first write error stops further output and is
// returned by every later Flush.
type Logger struct {
	w   *bufio.Writer
	err error
}

// NewLogger returns a Logger writing to w. Call Flush when the run ends.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: bufio.NewWriter(w)}
}

// Flush drains buffered output and returns any write error.
func (l *Logger) Flush() error {
	if l.err != nil {
		return l.err
	}
	l.err = l.w.Flush()
	return l.err
}

func (l *Logger) printf(format string, args ...interface{}) {
	if l.err != nil {
		return
	}
	_, l.err = fmt.Fprintf(l.w, format, args...)
}

// OnInject implements sim.Observer.
func (l *Logger) OnInject(t int64, packet int) {
	l.printf("I %d %d\n", t, packet)
}

// OnTransmit implements sim.Observer.
func (l *Logger) OnTransmit(t int64, from, to, packet int, outcome sim.TxOutcome) {
	l.printf("T %d %d %d %d %d\n", t, from, to, packet, int(outcome))
}

// OnOverhear implements sim.Observer.
func (l *Logger) OnOverhear(t int64, from, node, packet int) {
	l.printf("O %d %d %d %d\n", t, from, node, packet)
}

// OnCovered implements sim.Observer.
func (l *Logger) OnCovered(t int64, packet int) {
	l.printf("C %d %d\n", t, packet)
}

var _ sim.Observer = (*Logger)(nil)

// Recorder collects every event of a run in memory, in emission order. It
// implements sim.Observer.
type Recorder struct {
	Events []Event
}

// OnInject implements sim.Observer.
func (r *Recorder) OnInject(t int64, packet int) {
	r.Events = append(r.Events, Event{Kind: KindInject, T: t, Packet: packet})
}

// OnTransmit implements sim.Observer.
func (r *Recorder) OnTransmit(t int64, from, to, packet int, outcome sim.TxOutcome) {
	r.Events = append(r.Events, Event{Kind: KindTransmit, T: t, From: from, To: to, Packet: packet, Outcome: outcome})
}

// OnOverhear implements sim.Observer.
func (r *Recorder) OnOverhear(t int64, from, node, packet int) {
	r.Events = append(r.Events, Event{Kind: KindOverhear, T: t, From: from, To: node, Packet: packet})
}

// OnCovered implements sim.Observer.
func (r *Recorder) OnCovered(t int64, packet int) {
	r.Events = append(r.Events, Event{Kind: KindCovered, T: t, Packet: packet})
}

var _ sim.Observer = (*Recorder)(nil)

// Validate replays a decoded trace against the physical rules of the
// simulator and returns the first inconsistency found, or nil. It checks:
//
//   - events are time-ordered;
//   - injections are sequential (packet p at the p-th injection);
//   - every successful transmission's sender holds the packet and the
//     receiver does not (possession monotonicity);
//   - no node both transmits successfully and receives in the same slot
//     (semi-duplex);
//   - at most one reception per node per slot;
//   - coverage events fire at most once per packet.
//
// Use it to sanity-check traces produced by external tools or mutated by
// post-processing before analyzing them.
func Validate(events []Event) error {
	type nodePacket struct{ node, packet int }
	has := map[nodePacket]bool{}
	covered := map[int]bool{}
	injections := 0
	var prevT int64 = -1 << 62
	var slotT int64
	txThisSlot := map[int]bool{}
	rxThisSlot := map[int]bool{}
	resetSlot := func(t int64) {
		if t != slotT {
			slotT = t
			for k := range txThisSlot {
				delete(txThisSlot, k)
			}
			for k := range rxThisSlot {
				delete(rxThisSlot, k)
			}
		}
	}
	for i, ev := range events {
		if ev.T < prevT {
			return fmt.Errorf("tracelog: event %d out of order (t=%d after %d)", i, ev.T, prevT)
		}
		prevT = ev.T
		resetSlot(ev.T)
		switch ev.Kind {
		case KindInject:
			if ev.Packet != injections {
				return fmt.Errorf("tracelog: event %d injects packet %d, want %d", i, ev.Packet, injections)
			}
			injections++
			has[nodePacket{0, ev.Packet}] = true
		case KindTransmit:
			if ev.Packet >= injections {
				return fmt.Errorf("tracelog: event %d transmits uninjected packet %d", i, ev.Packet)
			}
			if !has[nodePacket{ev.From, ev.Packet}] {
				return fmt.Errorf("tracelog: event %d: node %d transmits packet %d it does not hold", i, ev.From, ev.Packet)
			}
			if ev.Outcome == sim.TxSuccess {
				if has[nodePacket{ev.To, ev.Packet}] {
					return fmt.Errorf("tracelog: event %d: node %d re-receives packet %d", i, ev.To, ev.Packet)
				}
				if rxThisSlot[ev.To] {
					return fmt.Errorf("tracelog: event %d: node %d receives twice in slot %d", i, ev.To, ev.T)
				}
				if txThisSlot[ev.To] {
					return fmt.Errorf("tracelog: event %d: node %d receives while transmitting in slot %d", i, ev.To, ev.T)
				}
				has[nodePacket{ev.To, ev.Packet}] = true
				rxThisSlot[ev.To] = true
			}
			txThisSlot[ev.From] = true
			if rxThisSlot[ev.From] {
				return fmt.Errorf("tracelog: event %d: node %d transmits after receiving in slot %d", i, ev.From, ev.T)
			}
		case KindOverhear:
			if has[nodePacket{ev.To, ev.Packet}] {
				return fmt.Errorf("tracelog: event %d: node %d overhears packet %d it already holds", i, ev.To, ev.Packet)
			}
			if rxThisSlot[ev.To] {
				return fmt.Errorf("tracelog: event %d: node %d overhears after receiving in slot %d", i, ev.To, ev.T)
			}
			has[nodePacket{ev.To, ev.Packet}] = true
			rxThisSlot[ev.To] = true
		case KindCovered:
			if covered[ev.Packet] {
				return fmt.Errorf("tracelog: event %d: packet %d covered twice", i, ev.Packet)
			}
			covered[ev.Packet] = true
		default:
			return fmt.Errorf("tracelog: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Stats summarizes a decoded trace.
type Stats struct {
	Events        int
	Injections    int
	Transmissions int
	Outcomes      map[sim.TxOutcome]int
	Overheard     int
	Covered       int
	FirstSlot     int64
	LastSlot      int64
	// PerNodeTx counts transmission attempts by sender id.
	PerNodeTx map[int]int
}

// Summarize aggregates events into Stats.
func Summarize(events []Event) Stats {
	s := Stats{
		Outcomes:  make(map[sim.TxOutcome]int),
		PerNodeTx: make(map[int]int),
		FirstSlot: -1,
	}
	for _, ev := range events {
		s.Events++
		if s.FirstSlot == -1 || ev.T < s.FirstSlot {
			s.FirstSlot = ev.T
		}
		if ev.T > s.LastSlot {
			s.LastSlot = ev.T
		}
		switch ev.Kind {
		case KindInject:
			s.Injections++
		case KindTransmit:
			s.Transmissions++
			s.Outcomes[ev.Outcome]++
			s.PerNodeTx[ev.From]++
		case KindOverhear:
			s.Overheard++
		case KindCovered:
			s.Covered++
		}
	}
	return s
}
