package experiments

// Regression goldens: every run is deterministic given its seeds, so these
// exact values guard the whole stack (topology generation, schedules,
// protocols, engine, RNG streams) against unintended behavioural change.
// If a change intentionally alters behaviour (e.g. retuning a protocol
// parameter), update the goldens and say so in the commit.

import (
	"testing"

	"ldcflood/internal/analysis"
	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

func fwl(n int) int                { return analysis.FWLFloor(n) }
func fdl(n, m, period int) float64 { return analysis.FDLTheorem1(n, m, period) }

func TestGoldenTopology(t *testing.T) {
	g := topology.GreenOrbs(1)
	if got := g.NumLinks(); got != 2279 {
		t.Fatalf("GreenOrbs(1) links = %d, want 2279", got)
	}
	s := g.Analyze()
	if s.Diameter != 11 {
		t.Fatalf("diameter = %d, want 11", s.Diameter)
	}
	if got := int(s.MeanDegree*10 + 0.5); got != 153 {
		t.Fatalf("mean degree = %.2f, want 15.3", s.MeanDegree)
	}
}

func TestGoldenSimRun(t *testing.T) {
	g := topology.GreenOrbs(1)
	run := func(name string) *sim.Result {
		p, err := flood.New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Graph:     g,
			Schedules: schedule.AssignUniform(g.N(), 20, rngutil.New(42).SubName("schedule")),
			Protocol:  p,
			M:         10,
			Coverage:  0.99,
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	golden := map[string]struct {
		totalSlots int64
		tx         int
	}{
		"opt":  {totalSlots: 319, tx: 3117},
		"dbao": {totalSlots: 325, tx: 3139},
	}
	for name, want := range golden {
		for rep := 0; rep < 2; rep++ {
			res := run(name)
			if res.TotalSlots != want.totalSlots || res.Transmissions != want.tx {
				t.Fatalf("%s run %d: %d slots / %d tx, golden %d / %d",
					name, rep, res.TotalSlots, res.Transmissions, want.totalSlots, want.tx)
			}
		}
	}
	// Absolute anchors, coarse enough to survive only intentional retuning.
	opt := run("opt")
	if opt.TotalSlots < 100 || opt.TotalSlots > 5000 {
		t.Fatalf("OPT golden run total %d outside sane envelope", opt.TotalSlots)
	}
	if !opt.Completed {
		t.Fatal("OPT golden run incomplete")
	}
}

func TestGoldenAnalytic(t *testing.T) {
	// Pure-math anchors that must never change.
	cases := []struct {
		got, want float64
		what      string
	}{
		{float64(fwl(1024)), 11, "FWLFloor(1024)"},
		{fdl(1024, 20, 5), 100, "FDL(1024,20,5)"},
		{fdl(256, 20, 5), 90, "FDL(256,20,5)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Fatalf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
}
