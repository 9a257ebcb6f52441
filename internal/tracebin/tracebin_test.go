package tracebin

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracelog"
)

// goldenRun runs one real flood with obs attached — the same golden event
// streams the byte-identity suites certify elsewhere.
func goldenRun(t *testing.T, protocol string, seed uint64, obs sim.Observer) {
	t.Helper()
	g := topology.Grid(6, 6, 0.8)
	p, err := flood.New(protocol)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(sim.Config{
		Graph:          g,
		Schedules:      schedule.AssignUniform(g.N(), 20, rngutil.New(seed).SubName("schedule")),
		Protocol:       p,
		M:              5,
		Coverage:       0.99,
		Seed:           seed,
		SyncErrorProb:  0.02,
		Observer:       obs,
		InjectInterval: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goldenEvents records a golden run's events in memory.
func goldenEvents(t *testing.T, protocol string, seed uint64) []tracelog.Event {
	t.Helper()
	rec := &tracelog.Recorder{}
	goldenRun(t, protocol, seed, rec)
	if len(rec.Events) == 0 {
		t.Fatalf("%s: the run emitted no events", protocol)
	}
	return rec.Events
}

// goldenBytes returns the trace a Writer attached to a golden run emits.
func goldenBytes(t *testing.T, protocol string, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	goldenRun(t, protocol, seed, w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenRoundTrip certifies the decoder on real traces: reading back
// the bytes an engine-attached Writer emitted yields exactly the events a
// Recorder attached to the same run collected, with a clean end.
func TestGoldenRoundTrip(t *testing.T) {
	for _, protocol := range flood.Names() {
		events := goldenEvents(t, protocol, 42)
		back, torn, err := ReadAll(bytes.NewReader(goldenBytes(t, protocol, 42)))
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		if torn {
			t.Errorf("%s: clean trace reported torn", protocol)
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("%s: decoded events differ from the recorded ones", protocol)
		}
	}
}

// TestEngineEmitMatchesConversion certifies that attaching a Writer
// directly to the engine produces exactly the bytes of encoding the
// recorded events — the streaming and in-memory paths are
// interchangeable — and that a rerun reproduces the bytes.
func TestEngineEmitMatchesConversion(t *testing.T) {
	for _, protocol := range flood.Names() {
		encoded, err := Encode(goldenEvents(t, protocol, 42))
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		direct := goldenBytes(t, protocol, 42)
		if !bytes.Equal(direct, encoded) {
			t.Fatalf("%s: engine-attached Writer diverged from Encode of the recorded events", protocol)
		}
		if again := goldenBytes(t, protocol, 42); !bytes.Equal(again, direct) {
			t.Errorf("%s: trace diverged on a rerun", protocol)
		}
	}
}

// randomEvents builds an arbitrary (not physically meaningful) event
// sequence: negative ids, huge time jumps, out-of-order times — the
// encoder must be lossless for anything a tracelog.Event can represent.
func randomEvents(rng *rand.Rand, n int) []tracelog.Event {
	kinds := []tracelog.Kind{tracelog.KindInject, tracelog.KindTransmit, tracelog.KindOverhear, tracelog.KindCovered}
	events := make([]tracelog.Event, n)
	for i := range events {
		ev := tracelog.Event{
			Kind:   kinds[rng.Intn(len(kinds))],
			T:      rng.Int63n(1<<40) - 1<<39,
			Packet: rng.Intn(1 << 20),
		}
		if ev.Kind == tracelog.KindTransmit || ev.Kind == tracelog.KindOverhear {
			ev.From = rng.Intn(1<<20) - 1<<10
			ev.To = rng.Intn(1<<20) - 1<<10
		}
		if ev.Kind == tracelog.KindTransmit {
			ev.Outcome = sim.TxOutcome(rng.Intn(7))
		}
		events[i] = ev
	}
	return events
}

// TestRandomRoundTrip is the property test: any event sequence survives
// encode/decode unchanged.
func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		events := randomEvents(rng, rng.Intn(200))
		bin, err := Encode(events)
		if err != nil {
			t.Fatal(err)
		}
		back, torn, err := ReadAll(bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		if torn {
			t.Fatal("clean encode reported torn")
		}
		if len(events) == 0 {
			if len(back) != 0 {
				t.Fatalf("decoded %d events from empty trace", len(back))
			}
			continue
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("trial %d: round trip changed events", trial)
		}
	}
}

// TestTornTail truncates a real trace at every byte offset: the reader
// must never error, must flag every mid-record cut as torn, and must
// return exactly the records that were fully written.
func TestTornTail(t *testing.T) {
	events := goldenEvents(t, "opt", 1)
	bin, err := Encode(events)
	if err != nil {
		t.Fatal(err)
	}
	// boundary[i] is the byte offset after record i (boundary[0] is the
	// header), computed by re-encoding prefixes — encoding is stateful
	// but deterministic, so prefix encodings are prefixes.
	boundary := make(map[int]int, len(events)+1)
	for i := 0; i <= len(events); i++ {
		prefix, err := Encode(events[:i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prefix, bin[:len(prefix)]) {
			t.Fatalf("encoding of %d-event prefix is not a byte prefix", i)
		}
		boundary[len(prefix)] = i
	}
	for cut := 0; cut <= len(bin); cut++ {
		got, torn, err := ReadAll(bytes.NewReader(bin[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) > 0 && !reflect.DeepEqual(got, events[:len(got)]) {
			t.Fatalf("cut %d: decoded events are not a prefix (got %d)", cut, len(got))
		}
		if n, clean := boundary[cut]; clean {
			if torn {
				t.Fatalf("cut %d: record-boundary cut reported torn", cut)
			}
			if len(got) != n {
				t.Fatalf("cut %d: want %d events, got %d", cut, n, len(got))
			}
		} else if !torn {
			t.Fatalf("cut %d: mid-record cut not flagged torn", cut)
		}
	}
}

// TestCorruption exercises the corruption taxonomy: bad magic, newer
// version, unknown record kind, varint overflow.
func TestCorruption(t *testing.T) {
	good, err := Encode([]tracelog.Event{{Kind: tracelog.KindInject, T: 3, Packet: 0}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		_, _, err := ReadAll(bytes.NewReader([]byte("I 3 0\nT 4 0 1 0 0\n")))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Offset != 0 {
			t.Fatalf("want CorruptError at 0, got %v", err)
		}
		if !strings.Contains(err.Error(), `want "LDCT"`) {
			t.Errorf("bad-magic error %q does not name the expected magic", err)
		}
	})
	t.Run("newer version", func(t *testing.T) {
		doc := append([]byte(nil), good...)
		doc[len(Magic)] = Version + 1
		_, _, err := ReadAll(bytes.NewReader(doc))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		doc := append(append([]byte(nil), good...), 0x7f, 0x00)
		got, _, err := ReadAll(bytes.NewReader(doc))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("want CorruptError, got %v", err)
		}
		if len(got) != 1 {
			t.Fatalf("want the 1 good record before the corruption, got %d", len(got))
		}
	})
	t.Run("varint overflow", func(t *testing.T) {
		doc := append([]byte(nil), good...)
		doc = append(doc, RecInject)
		for i := 0; i < 11; i++ {
			doc = append(doc, 0xff)
		}
		_, _, err := ReadAll(bytes.NewReader(doc))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("want CorruptError, got %v", err)
		}
	})
	t.Run("empty file is a torn header", func(t *testing.T) {
		got, torn, err := ReadAll(bytes.NewReader(nil))
		if err != nil || len(got) != 0 || !torn {
			t.Fatalf("want torn empty trace, got events=%d torn=%v err=%v", len(got), torn, err)
		}
	})
	t.Run("header-only file is a clean empty trace", func(t *testing.T) {
		got, torn, err := ReadAll(bytes.NewReader([]byte(Magic + "\x01")))
		if err != nil || len(got) != 0 || torn {
			t.Fatalf("want clean empty trace, got events=%d torn=%v err=%v", len(got), torn, err)
		}
	})
}

// TestWriterTelemetry checks the trace.records / trace.bytes counters
// against the document actually produced.
func TestWriterTelemetry(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(3)), 100)
	var buf bytes.Buffer
	reg := telemetry.New()
	w := NewWriter(&buf)
	w.Instrument(reg)
	if err := w.WriteEvents(events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, want := snap["trace.records"], int64(len(events)); got != want {
		t.Errorf("trace.records = %d, want %d", got, want)
	}
	if got, want := snap["trace.bytes"], int64(buf.Len()); got != want {
		t.Errorf("trace.bytes = %d, want %d (document size)", got, want)
	}
}

// TestStreamingReader drives Next through a one-byte-at-a-time reader to
// exercise window refills across record boundaries.
func TestStreamingReader(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(5)), 64)
	bin, err := Encode(events)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(&oneByteReader{data: bin})
	var got []tracelog.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatal("one-byte reads changed the decode")
	}
}

// oneByteReader yields one byte per Read call.
type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}
