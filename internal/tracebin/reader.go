package tracebin

// Streaming decoder for the binary trace format. The reader distinguishes
// three terminal conditions, mirroring internal/runner's journal
// semantics (docs/TRACE.md, "Torn-tail recovery"):
//
//   - clean end: the input stops exactly at a record boundary; Next
//     returns io.EOF and Torn reports false.
//   - torn tail: the input stops mid-record (a writer was killed before
//     its last buffered record drained). The partial record is dropped,
//     Next returns io.EOF, and Torn reports true — every fully-written
//     record before the tear is still delivered.
//   - corruption: the bytes cannot be a trace prefix at all (bad magic,
//     unsupported version, unknown record kind, varint overflow). Next
//     returns a *CorruptError naming the byte offset; nothing after it is
//     trusted.

import (
	"errors"
	"fmt"
	"io"

	"ldcflood/internal/sim"
	"ldcflood/internal/tracelog"
)

// ErrVersion is returned (wrapped in *CorruptError) when a trace's
// version byte is newer than this package understands.
var ErrVersion = errors.New("tracebin: unsupported format version")

// CorruptError reports undecodable input at a byte offset. A torn tail is
// NOT corruption — truncation mid-record is expected after a crash and is
// reported through Reader.Torn instead.
type CorruptError struct {
	// Offset is the byte position of the first undecodable byte, or -1
	// when the input position is unknown.
	Offset int64
	// Reason describes what failed to decode.
	Reason string
	// Err is an optional underlying error (e.g. ErrVersion).
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("tracebin: corrupt trace at byte %d: %s", e.Offset, e.Reason)
}

// Unwrap returns the underlying error, if any.
func (e *CorruptError) Unwrap() error { return e.Err }

// maxVarintLen bounds one encoded field; binary.Varint uses at most 10
// bytes for an int64.
const maxVarintLen = 10

// Reader streams events out of a binary trace. Use Next for one event at
// a time or ReadAll for the whole document.
type Reader struct {
	r   io.Reader
	buf []byte // read buffer; buf[pos:] is the unconsumed window
	pos int    // read cursor into buf
	off int64  // file offset of buf[pos]
	eof bool   // underlying reader exhausted

	headerDone bool
	torn       bool

	prevT      int64
	prevPacket int64
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, 0, 64*1024)}
}

// Torn reports whether the trace ended mid-record (or mid-header) — a
// truncated tail from a killed writer. It is meaningful once Next has
// returned io.EOF.
func (r *Reader) Torn() bool { return r.torn }

// fill grows the window to at least n unconsumed bytes, stopping early at
// EOF. It returns the number of bytes available. Consumed bytes are
// reclaimed only here, when the buffer runs short of room for a read: the
// window (a few dozen bytes at most when fill is called) slides to the
// front, and the buffer grows only if it is still short. Consuming a
// record is therefore O(1), not a shift of the whole buffered window.
func (r *Reader) fill(n int) (int, error) {
	for len(r.buf)-r.pos < n && !r.eof {
		if cap(r.buf)-len(r.buf) < 4096 {
			live := r.buf[r.pos:]
			if cap(r.buf)-len(live) < 4096 {
				grown := make([]byte, len(live), cap(r.buf)*2+4096)
				copy(grown, live)
				r.buf = grown
			} else {
				r.buf = r.buf[:copy(r.buf, live)]
			}
			r.pos = 0
		}
		m, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+m]
		if err == io.EOF {
			r.eof = true
		} else if err != nil {
			return len(r.buf) - r.pos, err
		}
	}
	return len(r.buf) - r.pos, nil
}

// window returns the unconsumed bytes.
func (r *Reader) window() []byte { return r.buf[r.pos:] }

// consume drops n bytes from the front of the window.
func (r *Reader) consume(n int) {
	r.pos += n
	r.off += int64(n)
}

// badMagic is the corruption reason for input that does not open with
// Magic; it names the expected bytes, since a file in any other format
// (such as a text rendering saved from cmd/tracecat) fails here.
var badMagic = fmt.Sprintf("bad magic: want %q", Magic)

// header checks the magic and version once. A file shorter than the
// header is a torn tail (a writer died before its first flush); wrong
// magic or a newer version is corruption.
func (r *Reader) header() error {
	if r.headerDone {
		return nil
	}
	n, err := r.fill(headerLen)
	if err != nil {
		return err
	}
	b := r.window()
	if n < headerLen {
		if n > 0 && string(b[:min(n, len(Magic))]) != Magic[:min(n, len(Magic))] {
			return &CorruptError{Offset: 0, Reason: badMagic}
		}
		r.torn = true
		return io.EOF
	}
	if string(b[:len(Magic)]) != Magic {
		return &CorruptError{Offset: 0, Reason: badMagic}
	}
	if v := b[len(Magic)]; v != Version {
		return &CorruptError{
			Offset: int64(len(Magic)),
			Reason: fmt.Sprintf("version %d (reader understands <= %d)", v, Version),
			Err:    ErrVersion,
		}
	}
	r.consume(headerLen)
	r.headerDone = true
	return nil
}

// varint decodes one zigzag varint at position p in the window win. It
// returns errShort when the window ends mid-varint (possible torn tail)
// and a *CorruptError when the varint overflows int64.
func (r *Reader) varint(win []byte, p int) (v int64, next int, err error) {
	var uv uint64
	var shift uint
	for i := 0; ; i++ {
		if p+i >= len(win) {
			return 0, 0, errShort
		}
		if i == maxVarintLen {
			return 0, 0, &CorruptError{Offset: r.off + int64(p), Reason: "varint overflow"}
		}
		b := win[p+i]
		if b < 0x80 {
			if i == maxVarintLen-1 && b > 1 {
				return 0, 0, &CorruptError{Offset: r.off + int64(p), Reason: "varint overflow"}
			}
			uv |= uint64(b) << shift
			// Zigzag decode.
			v = int64(uv >> 1)
			if uv&1 != 0 {
				v = ^v
			}
			return v, p + i + 1, nil
		}
		uv |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// errShort is the internal "window ended mid-record" sentinel; Next turns
// it into a torn tail at EOF.
var errShort = errors.New("tracebin: short record")

// fieldCount returns the number of varint payload fields (including the
// time delta) for a record kind, or -1 for an unknown kind.
func fieldCount(kind byte) int {
	switch kind {
	case RecInject, RecCovered:
		return 2 // dt, packet delta
	case RecTransmit:
		return 5 // dt, from, to delta, packet delta, outcome
	case RecOverhear:
		return 4 // dt, from, node delta, packet delta
	}
	return -1
}

// Next decodes the next event. At the end of input it returns io.EOF —
// check Torn to learn whether the trace ended cleanly or mid-record.
// Undecodable input returns a *CorruptError.
func (r *Reader) Next() (tracelog.Event, error) {
	if err := r.header(); err != nil {
		return tracelog.Event{}, err
	}
	// One record is at most 1 + 5*maxVarintLen bytes; keeping that much
	// in the window means a decode never stalls on a partial read.
	if _, err := r.fill(1 + 5*maxVarintLen); err != nil {
		return tracelog.Event{}, err
	}
	win := r.window()
	if len(win) == 0 {
		return tracelog.Event{}, io.EOF
	}
	kind := win[0]
	n := fieldCount(kind)
	if n < 0 {
		return tracelog.Event{}, &CorruptError{Offset: r.off, Reason: fmt.Sprintf("unknown record kind 0x%02x", kind)}
	}
	var fields [5]int64
	p := 1
	for i := 0; i < n; i++ {
		v, next, err := r.varint(win, p)
		if err == errShort {
			// The window holds everything the input had; a record that
			// does not fit is a torn tail.
			r.torn = true
			return tracelog.Event{}, io.EOF
		}
		if err != nil {
			return tracelog.Event{}, err
		}
		fields[i], p = v, next
	}
	r.consume(p)

	t := r.prevT + fields[0]
	r.prevT = t
	ev := tracelog.Event{T: t}
	switch kind {
	case RecInject, RecCovered:
		r.prevPacket += fields[1]
		ev.Packet = int(r.prevPacket)
		ev.Kind = tracelog.KindInject
		if kind == RecCovered {
			ev.Kind = tracelog.KindCovered
		}
	case RecTransmit:
		ev.Kind = tracelog.KindTransmit
		ev.From = int(fields[1])
		ev.To = int(fields[1] + fields[2])
		r.prevPacket += fields[3]
		ev.Packet = int(r.prevPacket)
		ev.Outcome = sim.TxOutcome(fields[4])
	case RecOverhear:
		ev.Kind = tracelog.KindOverhear
		ev.From = int(fields[1])
		ev.To = int(fields[1] + fields[2])
		r.prevPacket += fields[3]
		ev.Packet = int(r.prevPacket)
	}
	return ev, nil
}

// ReadAll decodes a whole binary trace. A torn tail is tolerated — the
// events before the tear are returned with torn == true — while
// corruption returns a *CorruptError alongside the events decoded before
// it.
func ReadAll(rd io.Reader) (events []tracelog.Event, torn bool, err error) {
	r := NewReader(rd)
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return events, r.Torn(), nil
		}
		if err != nil {
			return events, r.Torn(), err
		}
		events = append(events, ev)
	}
}
