package experiments

import (
	"fmt"
	"strings"

	"ldcflood/internal/asciichart"
	"ldcflood/internal/runner"
)

// Series is one named data series of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// FigureData is the reproducible content of one paper figure or table.
type FigureData struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// TableHeaders/TableRows hold row-oriented data (used alone for
	// Table I, alongside series for the simulation figures).
	TableHeaders []string
	TableRows    [][]string
	// Notes carries caveats (e.g. substitution reminders) into renderings.
	Notes []string
}

// Render draws the figure as text: chart (when series exist), table (when
// rows exist), and notes.
func (fd *FigureData) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", fd.ID, fd.Title)
	if len(fd.Series) > 0 {
		c := asciichart.Chart{XLabel: fd.XLabel, YLabel: fd.YLabel, Width: 68, Height: 18}
		for _, s := range fd.Series {
			c.MustAdd(s.Name, s.X, s.Y)
		}
		sb.WriteString(c.Render())
	}
	if len(fd.TableRows) > 0 {
		sb.WriteString(asciichart.Table(fd.TableHeaders, fd.TableRows))
	}
	for _, n := range fd.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// SeriesByName returns the named series, or nil.
func (fd *FigureData) SeriesByName(name string) *Series {
	for i := range fd.Series {
		if fd.Series[i].Name == name {
			return &fd.Series[i]
		}
	}
	return nil
}

// SimOptions controls the effort of the trace-driven experiments.
type SimOptions struct {
	// TopoSeed selects the synthetic GreenOrbs instance.
	TopoSeed uint64
	// Seed drives schedules and link loss.
	Seed uint64
	// M is the number of packets flooded (paper: 100).
	M int
	// Runs averages this many independent runs per configuration.
	Runs int
	// Coverage is the delivery-ratio target (paper: 0.99).
	Coverage float64
	// MaxSlots bounds each run (0 = engine default).
	MaxSlots int64
	// Duties lists the duty cycles for the sweep figures (paper:
	// 2%..20% in 2% steps).
	Duties []float64
	// Protocols lists protocol names to evaluate (default opt, dbao, of).
	Protocols []string
	// ScaleSizes lists the node counts for the scalability study
	// (default 300 → 100k; see TrickleScalability).
	ScaleSizes []int
	// Workers bounds how many simulations the batch runner executes
	// concurrently in the sweep figures (0 = GOMAXPROCS). Results never
	// depend on it; see internal/runner.
	Workers int
	// Progress, when non-nil, receives batch-runner progress snapshots
	// while the simulation sweeps run.
	Progress func(runner.Progress)
}

// runnerOptions maps the experiment options onto batch-runner options.
func (o *SimOptions) runnerOptions() runner.Options {
	return runner.Options{Workers: o.Workers, Progress: o.Progress}
}

// PaperSimOptions reproduces the paper's evaluation parameters in full:
// M=100 packets, duty cycles 2%-20%, 99% coverage.
func PaperSimOptions() SimOptions {
	return SimOptions{
		TopoSeed:  1,
		Seed:      1,
		M:         100,
		Runs:      1,
		Coverage:  0.99,
		Duties:    []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20},
		Protocols: []string{"opt", "dbao", "of"},
	}
}

// QuickSimOptions is a cut-down configuration (fewer packets and duty
// points) for benchmarks and smoke tests; the shapes survive.
func QuickSimOptions() SimOptions {
	o := PaperSimOptions()
	o.M = 20
	o.Duties = []float64{0.02, 0.05, 0.10, 0.20}
	return o
}

func (o *SimOptions) normalize() {
	if o.M <= 0 {
		o.M = 100
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Coverage <= 0 || o.Coverage > 1 {
		o.Coverage = 0.99
	}
	if len(o.Duties) == 0 {
		o.Duties = PaperSimOptions().Duties
	}
	if len(o.Protocols) == 0 {
		o.Protocols = []string{"opt", "dbao", "of"}
	}
}

// All regenerates every figure and table. Analytic figures always run in
// full; simulation figures honor opts.
func All(opts SimOptions) ([]*FigureData, error) {
	var out []*FigureData
	steps := []func() (*FigureData, error){
		Fig3,
		TableI,
		Fig5,
		Fig6,
		Fig7,
		func() (*FigureData, error) { return Fig8(opts.TopoSeed) },
		func() (*FigureData, error) { return Fig9(opts) },
	}
	for _, step := range steps {
		fd, err := step()
		if err != nil {
			return out, err
		}
		out = append(out, fd)
	}
	f10, f11, err := Fig10And11(opts)
	if err != nil {
		return out, err
	}
	return append(out, f10, f11), nil
}

// AllExtensions regenerates every beyond-the-paper experiment: the
// Lemma 1 illustration, the Section IV-A2 half-duplex accounting, the
// Section VI cross-layer sweep, schedule granularity, the per-node delay
// CDF, synchronization-error sensitivity, the heterogeneous-link study,
// the source-backlog stability probe, the cross-deployment robustness
// check, the fault-injection resilience study, and the timer-protocol
// scalability study. cmd/figures resolves each emitted FigureData.ID as
// a -fig id.
func AllExtensions(opts SimOptions) ([]*FigureData, error) {
	var out []*FigureData
	steps := []func() (*FigureData, error){
		GaltonWatson,
		HalfDuplex,
		func() (*FigureData, error) { return CrossLayer(opts) },
		func() (*FigureData, error) { return ScheduleGranularity(opts) },
		func() (*FigureData, error) { return NodeDelayCDF(opts) },
		func() (*FigureData, error) { return SyncError(opts) },
		func() (*FigureData, error) { return Heterogeneity(opts) },
		func() (*FigureData, error) { return Backlog(opts) },
		func() (*FigureData, error) { return Robustness(opts) },
		func() (*FigureData, error) { return Faults(opts) },
		func() (*FigureData, error) { return TrickleScalability(opts) },
	}
	for _, step := range steps {
		fd, err := step()
		if err != nil {
			return out, err
		}
		out = append(out, fd)
	}
	return out, nil
}
