package tracebin

import (
	"bytes"
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/tracelog"
)

// BenchmarkReaderReadAll decodes a 100k-event trace shaped like a real
// flood's (slowly advancing slots, small node ids and packet deltas, so
// records are a few bytes each) and reports the per-event decode cost.
func BenchmarkReaderReadAll(b *testing.B) {
	const n = 100000
	events := make([]tracelog.Event, n)
	for i := range events {
		ev := tracelog.Event{T: int64(i / 8), Packet: (i / 64) % 20}
		switch i % 4 {
		case 0, 1:
			ev.Kind = tracelog.KindTransmit
			ev.From, ev.To = i%298, (i*7)%298
			ev.Outcome = sim.TxOutcome(i % 5)
		case 2:
			ev.Kind = tracelog.KindOverhear
			ev.From, ev.To = i%298, (i*3)%298
		default:
			ev.Kind = tracelog.KindInject
		}
		events[i] = ev
	}
	bin, err := Encode(events)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, torn, err := ReadAll(bytes.NewReader(bin))
		if err != nil || torn || len(got) != n {
			b.Fatalf("decode: %d events, torn=%v, err=%v", len(got), torn, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
