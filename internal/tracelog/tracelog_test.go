package tracelog

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// TestRoundTripSyntheticEvents feeds one event of each kind through the
// sim.Observer interface: the Recorder must hand back the exact events, and
// the Logger must render them in the documented text layout.
func TestRoundTripSyntheticEvents(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	rec := &Recorder{}
	for _, obs := range []sim.Observer{l, rec} {
		obs.OnInject(0, 0)
		obs.OnTransmit(1, 2, 3, 0, sim.TxSuccess)
		obs.OnTransmit(2, 4, 5, 1, sim.TxCollision)
		obs.OnOverhear(3, 2, 7, 0)
		obs.OnCovered(9, 0)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: KindInject, T: 0, Packet: 0},
		{Kind: KindTransmit, T: 1, From: 2, To: 3, Packet: 0, Outcome: sim.TxSuccess},
		{Kind: KindTransmit, T: 2, From: 4, To: 5, Packet: 1, Outcome: sim.TxCollision},
		{Kind: KindOverhear, T: 3, From: 2, To: 7, Packet: 0},
		{Kind: KindCovered, T: 9, Packet: 0},
	}
	if !reflect.DeepEqual(rec.Events, want) {
		t.Fatalf("recorded %+v, want %+v", rec.Events, want)
	}
	wantText := fmt.Sprintf("I 0 0\nT 1 2 3 0 %d\nT 2 4 5 1 %d\nO 3 2 7 0\nC 9 0\n", int(sim.TxSuccess), int(sim.TxCollision))
	if got := buf.String(); got != wantText {
		t.Fatalf("text rendering:\n%s\nwant:\n%s", got, wantText)
	}
}

func TestLoggerAgainstRealSimulation(t *testing.T) {
	g := topology.GreenOrbs(3)
	p, err := flood.New("dbao")
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	res, err := sim.Run(sim.Config{
		Graph:     g,
		Schedules: schedule.AssignUniform(g.N(), 10, rngutil.New(5).SubName("schedule")),
		Protocol:  p,
		M:         5,
		Coverage:  0.99,
		Seed:      5,
		Observer:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(rec.Events)
	// The trace must agree with the engine's own accounting.
	if s.Injections != res.M {
		t.Fatalf("injections %d vs M %d", s.Injections, res.M)
	}
	if s.Transmissions != res.Transmissions {
		t.Fatalf("trace tx %d vs engine %d", s.Transmissions, res.Transmissions)
	}
	if s.Overheard != res.Overheard {
		t.Fatalf("trace overheard %d vs engine %d", s.Overheard, res.Overheard)
	}
	if s.Covered != res.M {
		t.Fatalf("covered %d vs %d", s.Covered, res.M)
	}
	fails := s.Outcomes[sim.TxLoss] + s.Outcomes[sim.TxCollision] + s.Outcomes[sim.TxBusy] + s.Outcomes[sim.TxRedundant]
	if fails != res.Failures() {
		t.Fatalf("trace failures %d vs engine %d", fails, res.Failures())
	}
	if s.Outcomes[sim.TxSuccess] == 0 {
		t.Fatal("no successful transmissions in trace")
	}
	// Per-node counts mirror the engine's TxPerNode.
	for node, count := range s.PerNodeTx {
		if res.TxPerNode[node] != count {
			t.Fatalf("node %d: trace %d vs engine %d", node, count, res.TxPerNode[node])
		}
	}
	if s.FirstSlot != 0 || s.LastSlot <= 0 || s.LastSlot >= res.TotalSlots {
		t.Fatalf("slot range [%d, %d] vs total %d", s.FirstSlot, s.LastSlot, res.TotalSlots)
	}
}

func TestValidateAcceptsRealTraces(t *testing.T) {
	g := topology.GreenOrbs(2)
	for _, name := range []string{"opt", "dbao", "of"} {
		p, err := flood.New(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := &Recorder{}
		if _, err := sim.Run(sim.Config{
			Graph:     g,
			Schedules: schedule.AssignUniform(g.N(), 10, rngutil.New(9).SubName("schedule")),
			Protocol:  p,
			M:         4,
			Coverage:  0.99,
			Seed:      9,
			Observer:  rec,
		}); err != nil {
			t.Fatal(err)
		}
		if err := Validate(rec.Events); err != nil {
			t.Fatalf("%s trace invalid: %v", name, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() []Event {
		return []Event{
			{Kind: KindInject, T: 0, Packet: 0},
			{Kind: KindTransmit, T: 1, From: 0, To: 1, Packet: 0, Outcome: sim.TxSuccess},
			{Kind: KindTransmit, T: 2, From: 1, To: 2, Packet: 0, Outcome: sim.TxSuccess},
			{Kind: KindCovered, T: 2, Packet: 0},
		}
	}
	if err := Validate(mk()); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]Event) []Event
	}{
		{"out of order", func(e []Event) []Event { e[2].T = 0; return e }},
		{"wrong injection order", func(e []Event) []Event { e[0].Packet = 1; return e }},
		{"sender lacks packet", func(e []Event) []Event { e[1].From = 2; return e }},
		{"double reception", func(e []Event) []Event { e[2].To = 1; return e }},
		{"uninjected packet", func(e []Event) []Event { e[1].Packet = 3; return e }},
		{"double coverage", func(e []Event) []Event { return append(e, Event{Kind: KindCovered, T: 3, Packet: 0}) }},
		{"overhear already held", func(e []Event) []Event {
			return append(e, Event{Kind: KindOverhear, T: 3, From: 0, To: 1, Packet: 0})
		}},
		{"transmit and receive same slot", func(e []Event) []Event {
			e[2].T = 1
			e[2].From = 1
			e[3].T = 1
			return e
		}},
	}
	for _, c := range cases {
		if err := Validate(c.mutate(mk())); err == nil {
			t.Fatalf("%s not detected", c.name)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Events != 0 || s.FirstSlot != -1 {
		t.Fatalf("empty summary: %+v", s)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	return 0, &writeError{}
}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestLoggerLatchesWriteError(t *testing.T) {
	l := NewLogger(&failWriter{})
	// Fill the bufio buffer to force the underlying write to happen.
	for i := 0; i < 10000; i++ {
		l.OnInject(int64(i), i)
	}
	err := l.Flush()
	if err == nil {
		t.Fatal("write error not surfaced")
	}
	if again := l.Flush(); again != err {
		t.Fatalf("second Flush = %v, want the latched %v", again, err)
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []sim.TxOutcome{sim.TxSuccess, sim.TxLoss, sim.TxCollision, sim.TxBusy, sim.TxRedundant} {
		if o.String() == "" || strings.HasPrefix(o.String(), "outcome(") {
			t.Fatalf("bad name for %d", int(o))
		}
	}
	if sim.TxOutcome(99).String() != "outcome(99)" {
		t.Fatal("unknown outcome should render numerically")
	}
}
