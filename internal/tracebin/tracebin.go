// Package tracebin is the on-disk format of simulation traces: every
// command that writes a trace file writes this format, and every command
// that reads one reads it back. Records describe the four event kinds of
// internal/tracelog (injection, transmission attempt, overheard
// reception, coverage) and are varint-encoded with per-field deltas, so a
// GreenOrbs flood trace costs a few bytes per event (BENCH_engine.json's
// trace_bin_bytes column) and the reader streams without allocating per
// record.
//
// The byte layout, torn-tail recovery semantics and determinism
// guarantees are specified in docs/TRACE.md; this package is the
// reference implementation of that document.
//
// Writer implements sim.Observer, so a trace is captured by attaching it
// to a run:
//
//	w := tracebin.NewWriter(f)
//	sim.Run(sim.Config{..., Observer: w})
//	w.Flush()
//
// Reader and ReadAll decode a trace into tracelog.Event values, which
// cmd/tracecat renders as text through tracelog.Logger. Writer.WriteEvent
// and Encode accept the same values, so decoding and re-encoding a trace
// reproduces its bytes.
package tracebin

import (
	"bufio"
	"encoding/binary"
	"io"

	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/tracelog"
)

// Magic is the 4-byte signature opening every trace file. The bytes
// spell "LDCT" (low-duty-cycle trace); input that does not start with
// them is rejected at byte 0.
const Magic = "LDCT"

// Version is the format version byte written after the magic. Readers
// reject traces with a newer version instead of guessing; the layout
// rules for each version are frozen in docs/TRACE.md.
const Version = 1

// Record kind bytes, one per event kind.
const (
	// RecInject is an injection record: the source generated a packet.
	RecInject = 0x01
	// RecTransmit is a transmission-attempt record with its outcome.
	RecTransmit = 0x02
	// RecOverhear is an overheard-reception record.
	RecOverhear = 0x03
	// RecCovered is a coverage-reached record.
	RecCovered = 0x04
)

// headerLen is the encoded header size: len(Magic) plus the version byte.
const headerLen = len(Magic) + 1

// Writer streams events to w in the binary trace format. It implements
// sim.Observer, so it can be attached directly via sim.Config.Observer.
// Errors are latched: the first write error stops further output and is
// reported by Err and Flush.
//
// The encoding is a pure function of the event sequence — two runs that
// emit the same events produce byte-identical traces, which is what lets
// the equivalence suites compare runs by their trace bytes.
type Writer struct {
	w   *bufio.Writer
	err error

	prevT      int64
	prevPacket int64

	// scratch is the per-record encode buffer (max 1 kind byte + 5
	// fields x 10 varint bytes, rounded up).
	scratch [56]byte

	records *telemetry.Counter // nil when no registry attached
	bytes   *telemetry.Counter
}

// NewWriter returns a Writer emitting to w. The header (magic + version)
// is buffered immediately; call Flush when the run ends to drain it and
// any buffered records.
func NewWriter(w io.Writer) *Writer {
	bw := &Writer{w: bufio.NewWriter(w)}
	_, bw.err = bw.w.WriteString(Magic)
	if bw.err == nil {
		bw.err = bw.w.WriteByte(Version)
	}
	return bw
}

// Instrument resolves the trace.records and trace.bytes counters against
// reg and makes the writer tick them per record (see the catalog in
// docs/OBSERVABILITY.md). Counting includes the already-buffered header
// bytes. A nil registry is a no-op.
func (w *Writer) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	w.records = reg.Counter("trace.records")
	w.bytes = reg.Counter("trace.bytes")
	w.bytes.Add(int64(headerLen))
}

// Err returns the first write error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains buffered output and returns any write error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// emit encodes one record: the kind byte, the zigzag-varint time delta,
// then the kind's payload fields in order. The time and packet deltas are
// computed against the writer's running state here so every entry point
// shares the same threading; fields is the payload with the packet field
// already replaced by its delta.
func (w *Writer) emit(kind byte, t int64, fields ...int64) {
	if w.err != nil {
		return
	}
	buf := w.scratch[:0]
	buf = append(buf, kind)
	buf = binary.AppendVarint(buf, t-w.prevT)
	for _, v := range fields {
		buf = binary.AppendVarint(buf, v)
	}
	w.prevT = t
	_, w.err = w.w.Write(buf)
	if w.records != nil {
		w.records.Inc()
		w.bytes.Add(int64(len(buf)))
	}
}

// packetDelta returns the zigzag-encoded packet field (delta against the
// previous record's packet id) and advances the writer's packet state.
func (w *Writer) packetDelta(packet int) int64 {
	d := int64(packet) - w.prevPacket
	w.prevPacket = int64(packet)
	return d
}

// WriteEvent encodes one decoded event. The event's kind must be one of
// the four tracelog kinds; unknown kinds latch an error.
func (w *Writer) WriteEvent(ev tracelog.Event) error {
	switch ev.Kind {
	case tracelog.KindInject:
		w.OnInject(ev.T, ev.Packet)
	case tracelog.KindTransmit:
		w.OnTransmit(ev.T, ev.From, ev.To, ev.Packet, ev.Outcome)
	case tracelog.KindOverhear:
		w.OnOverhear(ev.T, ev.From, ev.To, ev.Packet)
	case tracelog.KindCovered:
		w.OnCovered(ev.T, ev.Packet)
	default:
		if w.err == nil {
			w.err = &CorruptError{Offset: -1, Reason: "unknown event kind " + string(rune(ev.Kind))}
		}
	}
	return w.err
}

// WriteEvents encodes a whole decoded trace in order.
func (w *Writer) WriteEvents(events []tracelog.Event) error {
	for _, ev := range events {
		if err := w.WriteEvent(ev); err != nil {
			return err
		}
	}
	return w.err
}

// OnInject implements sim.Observer.
func (w *Writer) OnInject(t int64, packet int) {
	w.emit(RecInject, t, w.packetDelta(packet))
}

// OnTransmit implements sim.Observer.
func (w *Writer) OnTransmit(t int64, from, to, packet int, outcome sim.TxOutcome) {
	w.emit(RecTransmit, t, int64(from), int64(to)-int64(from), w.packetDelta(packet), int64(outcome))
}

// OnOverhear implements sim.Observer.
func (w *Writer) OnOverhear(t int64, from, node, packet int) {
	w.emit(RecOverhear, t, int64(from), int64(node)-int64(from), w.packetDelta(packet))
}

// OnCovered implements sim.Observer.
func (w *Writer) OnCovered(t int64, packet int) {
	w.emit(RecCovered, t, w.packetDelta(packet))
}

var _ sim.Observer = (*Writer)(nil)

// Encode renders a decoded trace as one binary document in memory, for
// callers that do not need streaming.
func Encode(events []tracelog.Event) ([]byte, error) {
	var buf writerBuffer
	w := NewWriter(&buf)
	if err := w.WriteEvents(events); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// writerBuffer is a minimal in-memory io.Writer (avoids importing bytes
// just for Encode).
type writerBuffer struct{ b []byte }

// Write appends p to the buffer.
func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
