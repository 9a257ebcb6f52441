package service_test

import (
	"testing"

	"ldcflood/internal/service"
)

// benchJobSpec is the evaluation-shaped grid BenchmarkServiceJob submits:
// opt, dbao, of × 2% and 5% duty × 8 schedule seeds at M=20 on GreenOrbs,
// 48 cells in all.
func benchJobSpec(parallel int) service.Spec {
	return service.Spec{
		Protocols: []string{"opt", "dbao", "of"},
		Duties:    []float64{0.02, 0.05},
		Seeds:     8,
		M:         20,
		Coverage:  0.99,
		TopoSeed:  1,
		Parallel:  parallel,
	}
}

// smallJobSpec is a job with fewer cells than a chunk: dbao and of × 2%
// and 5% duty × 1 schedule seed at the paper's M=100, 4 cells in all.
func smallJobSpec() service.Spec {
	spec := benchJobSpec(0)
	spec.Protocols = []string{"dbao", "of"}
	spec.Seeds = 1
	spec.M = 100
	return spec
}

// BenchmarkServiceJob is the floodd end-to-end latency row: one op is a
// job from Submit until it settles in StateDone — the 48-cell grid at one
// batch worker and at the default (GOMAXPROCS) parallelism, and the
// 4-cell job at the default, which shows whether a job of fewer chunks
// than batch workers still runs its cells in parallel. Every op writes a
// fresh job directory, so nothing is served from an earlier op's journal.
func BenchmarkServiceJob(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec service.Spec
	}{
		{"parallel=1", benchJobSpec(1)},
		{"parallel=default", benchJobSpec(0)},
		{"cells=4,parallel=default", smallJobSpec()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchServiceJob(b, service.Options{}, bc.spec)
		})
	}
}

// benchServiceJob submits spec b.N times, one job at a time, and fails
// the benchmark if any job does not finish in StateDone.
func benchServiceJob(b *testing.B, opts service.Options, spec service.Spec) {
	s := newService(b, b.TempDir(), opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		ch, _ := j.Subscribe()
		for range ch {
		}
		if st := j.Status(); st.State != service.StateDone {
			b.Fatalf("job %s = %s (%s)", j.ID, st.State, st.Error)
		}
	}
}
