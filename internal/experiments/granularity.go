package experiments

import (
	"fmt"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// ScheduleGranularity probes a question the paper's normalized model
// (Section III-A: one active slot per period) leaves implicit: at a fixed
// duty ratio, is it better to wake once per short period or k times per
// k-times-longer period? For k active slots placed uniformly in a period of
// k·T the expected forward wait to the next active slot is ~kT/(k+1),
// which grows from ~T/2 (k=1) toward T (k→∞): coarse schedules pay more
// sleep latency at the same energy. The experiment measures this on the
// GreenOrbs trace and the figure reports delay versus granularity k.
func ScheduleGranularity(opts SimOptions) (*FigureData, error) {
	opts.normalize()
	g := topology.GreenOrbs(opts.TopoSeed)
	const duty = 0.05
	baseT := schedule.PeriodForDuty(duty)

	fd := &FigureData{
		ID:     "granularity",
		Title:  fmt.Sprintf("Schedule granularity at fixed duty %.0f%%: k active slots per k x %d-slot period (GreenOrbs, M=%d)", duty*100, baseT, opts.M),
		XLabel: "active slots per period (k)",
		YLabel: "mean flooding delay / time slots",
	}
	fd.TableHeaders = []string{"k", "period", "mean delay", "failures", "covered"}
	ks := []int{1, 2, 3, 5}
	var b batch
	for _, k := range ks {
		for run := 0; run < opts.Runs; run++ {
			seed := opts.Seed + uint64(run)*1000 + uint64(k)
			b.jobs = append(b.jobs, sim.Config{
				Graph: g,
				Schedules: schedule.AssignUniformMulti(g.N(), baseT*k, k,
					rngutil.New(seed).SubName("schedule")),
				Protocol: flood.NewOPT(),
				M:        opts.M,
				Coverage: opts.Coverage,
				Seed:     seed,
				MaxSlots: opts.MaxSlots,
			})
		}
	}
	sims, err := b.run("granularity", opts)
	if err != nil {
		return nil, err
	}
	aggs, err := combineRuns(sims, opts.Runs)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for i, k := range ks {
		period, agg := baseT*k, aggs[i]
		xs = append(xs, float64(k))
		ys = append(ys, agg.Delay.Mean)
		fd.TableRows = append(fd.TableRows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", period),
			fmt.Sprintf("%.0f", agg.Delay.Mean),
			fmt.Sprintf("%.0f", agg.Failures),
			fmt.Sprintf("%.2f", agg.CoveredFraction),
		})
	}
	fd.Series = append(fd.Series, Series{Name: "OPT", X: xs, Y: ys})
	fd.Notes = append(fd.Notes,
		"the paper's one-slot-per-period model is the optimal granularity: k slots in a k-times-longer period raise the expected sleep latency toward T at the same duty ratio",
	)
	return fd, nil
}
