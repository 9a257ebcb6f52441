// Package ldcflood's root benchmark harness regenerates every table and
// figure of the paper (see DESIGN.md §4) as testing.B benchmarks, reporting
// the headline metric of each experiment via b.ReportMetric, plus the
// ablation benchmarks for the design choices called out in DESIGN.md §5.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package ldcflood

import (
	"context"
	"testing"

	"ldcflood/internal/analysis"
	"ldcflood/internal/experiments"
	"ldcflood/internal/flood"
	"ldcflood/internal/matrixflood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/runner"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// benchOpts keeps the simulation benchmarks affordable per iteration while
// preserving every qualitative shape (same topology, duty cycles, coverage
// rule as the paper; fewer packets).
func benchOpts() experiments.SimOptions {
	o := experiments.QuickSimOptions()
	o.M = 10
	return o
}

// BenchmarkFig3MatrixFlood regenerates the Fig. 3 worked example of
// Algorithm 1 (N=4, M=2) including the possession-matrix trace.
func BenchmarkFig3MatrixFlood(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fd, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		_ = fd.Render()
	}
}

// BenchmarkTableIWaitings regenerates Table I: the analytic per-packet
// waitings cross-checked against Algorithm 1 on N=1024, M=20.
func BenchmarkTableIWaitings(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.FigureData
	for i := 0; i < b.N; i++ {
		fd, err := experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
		last = fd
	}
	b.ReportMetric(float64(len(last.TableRows)), "rows")
}

// BenchmarkFig5Theorem1 regenerates both panels of Fig. 5 (Theorem 1
// delay-limit curves) and reports the N=1024, T=5, M=20 anchor value.
func BenchmarkFig5Theorem1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(analysis.FDLTheorem1(1024, 20, 5), "FDL(N=1024,M=20,T=5)")
}

// BenchmarkFig6Theorem2 regenerates Fig. 6 (Theorem 2 bounds for arbitrary
// N).
func BenchmarkFig6Theorem2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
	bounds := analysis.FDLTheorem2(1024, 20, 5)
	b.ReportMetric(bounds.Upper-bounds.Lower, "bound-width(N=1024,M=20)")
}

// BenchmarkFig7LinkLoss regenerates Fig. 7: the k-class characteristic-root
// delay prediction across duty cycles and link qualities.
func BenchmarkFig7LinkLoss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(analysis.PredictedDelay(298, 0.99, 2.0, 50), "delay(k=2,duty=2%)")
}

// BenchmarkFig8Topology regenerates the synthetic GreenOrbs topology of
// Fig. 8 and its calibration statistics.
func BenchmarkFig8Topology(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(topology.GreenOrbs(1).Analyze().MeanDegree, "mean-degree")
}

// BenchmarkFig9DelayVsIndex regenerates Fig. 9: per-packet flooding delay
// versus packet index for OPT/DBAO/OF at 5% duty.
func BenchmarkFig9DelayVsIndex(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	var last *experiments.FigureData
	for i := 0; i < b.N; i++ {
		fd, err := experiments.Fig9(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = fd
	}
	if s := last.SeriesByName("OPT"); s != nil && len(s.Y) > 0 {
		b.ReportMetric(s.Y[len(s.Y)-1], "OPT-last-packet-delay")
	}
}

// BenchmarkFig10DelayVsDuty regenerates Fig. 10: average flooding delay
// versus duty cycle with the analytic lower bound.
func BenchmarkFig10DelayVsDuty(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	var last *experiments.FigureData
	for i := 0; i < b.N; i++ {
		fd, _, err := experiments.Fig10And11(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = fd
	}
	if s := last.SeriesByName("OPT"); s != nil && len(s.Y) > 0 {
		b.ReportMetric(s.Y[0], "OPT-delay-at-2%")
	}
}

// BenchmarkFig11Failures regenerates Fig. 11: transmission failures versus
// duty cycle.
func BenchmarkFig11Failures(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	var last *experiments.FigureData
	for i := 0; i < b.N; i++ {
		_, fd, err := experiments.Fig10And11(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = fd
	}
	if s := last.SeriesByName("DBAO"); s != nil && len(s.Y) > 0 {
		b.ReportMetric(s.Y[0], "DBAO-failures-at-2%")
	}
}

// BenchmarkRunnerBatch measures the internal/runner batch executor
// end-to-end on a Fig. 10-shaped grid (3 protocols × 4 duty cycles on the
// 298-node GreenOrbs topology, M=10) with one worker versus the full
// machine. Both variants produce identical results; the ratio of their
// times is the parallel speedup every sweep in the repository inherits.
func BenchmarkRunnerBatch(b *testing.B) {
	g := topology.GreenOrbs(1)
	build := func(b *testing.B) []sim.Config {
		b.Helper()
		// Protocols are stateful, so every iteration needs fresh instances.
		var jobs []sim.Config
		duties := []float64{0.02, 0.05, 0.10, 0.20}
		seeds := runner.Seeds(1, len(duties)*3)
		for ji, name := range []string{"opt", "dbao", "of"} {
			for di, duty := range duties {
				p, err := flood.New(name)
				if err != nil {
					b.Fatal(err)
				}
				seed := seeds[ji*len(duties)+di]
				period := schedule.PeriodForDuty(duty)
				jobs = append(jobs, sim.Config{
					Graph:     g,
					Schedules: schedule.AssignUniform(g.N(), period, rngutil.New(seed).SubName("schedule")),
					Protocol:  p,
					M:         10,
					Coverage:  0.99,
					Seed:      seed,
				})
			}
		}
		return jobs
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers-1", 1},
		{"workers-max", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var slots int64
			for i := 0; i < b.N; i++ {
				rs, stats := runner.Run(context.Background(), build(b), runner.Options{Workers: bc.workers})
				if err := rs.Err(); err != nil {
					b.Fatal(err)
				}
				slots = stats.Slots
			}
			b.ReportMetric(float64(slots), "slots-per-batch")
		})
	}
}

// BenchmarkEngine is the engine-throughput baseline (BENCH_engine.json is
// produced from the same grid by `make bench` via cmd/engbench): the
// 298-node GreenOrbs topology × {OPT, DBAO, OF} × duty {1%, 5%}. The
// per-iteration allocations are Run's one-time setup; the slot loop itself
// runs allocation-free in the steady state.
func BenchmarkEngine(b *testing.B) {
	g := topology.GreenOrbs(1)
	for _, duty := range []struct {
		name   string
		period int
	}{
		{"duty-1pct", 100},
		{"duty-5pct", 20},
	} {
		scheds := schedule.AssignUniform(g.N(), duty.period, rngutil.New(1).SubName("schedule"))
		for _, name := range []string{"opt", "dbao", "of"} {
			b.Run(name+"-"+duty.name, func(b *testing.B) {
				// One protocol instance per sub-benchmark: Run calls Reset
				// every iteration, and reusing the instance lets the
				// graph-keyed Reset memoization kick in exactly as it does
				// across a sweep's runs.
				p, err := flood.New(name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var slots int64
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(sim.Config{
						Graph:     g,
						Schedules: scheds,
						Protocol:  p,
						M:         10,
						Coverage:  0.99,
						Seed:      1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Completed {
						b.Fatal("benchmark run did not complete")
					}
					slots = res.TotalSlots
				}
				b.ReportMetric(float64(slots), "sim-slots")
			})
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// livelockCap returns the slot cap for an ablation pair whose ablated leg
// livelocks: 10× the horizon of the healthy configuration cfg. It runs
// once, before the timed loops, so a livelocked op stops there instead of
// at a fixed cap far beyond any healthy flood.
func livelockCap(b *testing.B, cfg matrixflood.Config) int {
	b.Helper()
	res, err := matrixflood.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return 10 * res.TotalSlots
}

// BenchmarkAblationExpiry compares Algorithm 1 with and without the
// expired-time rule: disabling it lets stale packets crowd out fresh ones.
func BenchmarkAblationExpiry(b *testing.B) {
	cap := livelockCap(b, matrixflood.Config{N: 64, M: 16})
	run := func(b *testing.B, disable bool) {
		b.ReportAllocs()
		total, livelocks := 0, 0
		for i := 0; i < b.N; i++ {
			res, err := matrixflood.Run(matrixflood.Config{N: 64, M: 16, DisableExpiry: disable, MaxSlots: cap})
			if err != nil {
				// Livelock — stale packets crowd fresh ones out forever —
				// is the expected ablation outcome; report the cap.
				total += cap
				livelocks++
				continue
			}
			total += res.TotalSlots
		}
		b.ReportMetric(float64(total)/float64(b.N), "compact-slots")
		b.ReportMetric(float64(livelocks)/float64(b.N), "livelock-fraction")
	}
	b.Run("with-expiry", func(b *testing.B) { run(b, false) })
	b.Run("without-expiry", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPacketChoice compares most-recent-first against FIFO
// packet selection in Algorithm 1: under FIFO only the first packet
// completes and the rest livelock.
func BenchmarkAblationPacketChoice(b *testing.B) {
	cap := livelockCap(b, matrixflood.Config{N: 256, M: 12, Policy: matrixflood.MostRecentFirst})
	run := func(b *testing.B, policy matrixflood.Policy) {
		b.ReportAllocs()
		total, livelocks := 0, 0
		for i := 0; i < b.N; i++ {
			res, err := matrixflood.Run(matrixflood.Config{N: 256, M: 12, Policy: policy, MaxSlots: cap})
			if err != nil {
				total += cap
				livelocks++
				continue
			}
			total += res.TotalSlots
		}
		b.ReportMetric(float64(total)/float64(b.N), "compact-slots")
		b.ReportMetric(float64(livelocks)/float64(b.N), "livelock-fraction")
	}
	b.Run("most-recent-first", func(b *testing.B) { run(b, matrixflood.MostRecentFirst) })
	b.Run("fifo", func(b *testing.B) { run(b, matrixflood.FIFOPacket) })
}

func benchSimProtocol(b *testing.B, p sim.Protocol) *sim.Result {
	b.Helper()
	g := topology.GreenOrbs(1)
	res, err := sim.Run(sim.Config{
		Graph:     g,
		Schedules: schedule.AssignUniform(g.N(), 20, rngutil.New(uint64(b.N)).SubName("schedule")),
		Protocol:  p,
		M:         10,
		Coverage:  0.99,
		Seed:      uint64(b.N),
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationOverhearing compares DBAO with and without overhearing:
// off raises transmissions and failures.
func BenchmarkAblationOverhearing(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		b.ReportAllocs()
		var delay, tx float64
		for i := 0; i < b.N; i++ {
			res := benchSimProtocol(b, &flood.DBAO{DisableOverhearing: disable})
			delay += res.MeanDelay()
			tx += float64(res.Transmissions)
		}
		b.ReportMetric(delay/float64(b.N), "mean-delay-slots")
		b.ReportMetric(tx/float64(b.N), "transmissions")
	}
	b.Run("with-overhearing", func(b *testing.B) { run(b, false) })
	b.Run("without-overhearing", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationOpportunistic compares OF with and without opportunistic
// links: pure tree forwarding pays full sleep latency on every hop.
func BenchmarkAblationOpportunistic(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		b.ReportAllocs()
		var delay float64
		for i := 0; i < b.N; i++ {
			of := flood.NewOF()
			of.DisableOpportunistic = disable
			res := benchSimProtocol(b, of)
			delay += res.MeanDelay()
		}
		b.ReportMetric(delay/float64(b.N), "mean-delay-slots")
	}
	b.Run("with-opportunistic", func(b *testing.B) { run(b, false) })
	b.Run("tree-only", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCSRange sweeps DBAO's carrier-sense range factor: small
// ranges breed hidden terminals and collisions, large ranges converge to
// OPT.
func BenchmarkAblationCSRange(b *testing.B) {
	for _, factor := range []float64{1.0, 1.2, 1.8} {
		b.Run(map[float64]string{1.0: "cs-1.0", 1.2: "cs-1.2", 1.8: "cs-1.8"}[factor], func(b *testing.B) {
			b.ReportAllocs()
			var delay, coll float64
			for i := 0; i < b.N; i++ {
				res := benchSimProtocol(b, &flood.DBAO{CSRangeFactor: factor})
				delay += res.MeanDelay()
				coll += float64(res.CollisionFailures)
			}
			b.ReportMetric(delay/float64(b.N), "mean-delay-slots")
			b.ReportMetric(coll/float64(b.N), "collisions")
		})
	}
}
