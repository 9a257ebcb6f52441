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
	// NodeDelayCDF, SyncError, Backlog and TrickleScalability ignore it
	// and run each configuration once; Heterogeneity always runs three.
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
	// concurrently (0 = GOMAXPROCS). Every simulation figure runs all of
	// its floods as one batch, so each honors it; results never depend on
	// it (see internal/runner).
	Workers int
	// Progress, when non-nil, receives batch-runner progress snapshots
	// while a simulation figure runs: one batch per figure, so Total is
	// that figure's flood count (SimDelayFunc runs one batch per call).
	Progress func(runner.Progress)
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

// QuickSimOptions is a cut-down configuration (fewer packets, duty
// points and scalability sizes) for benchmarks and smoke tests; the
// shapes survive.
func QuickSimOptions() SimOptions {
	o := PaperSimOptions()
	o.M = 20
	o.Duties = []float64{0.02, 0.05, 0.10, 0.20}
	o.ScaleSizes = []int{300, 1000, 3000}
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

// Figure is one entry of the figure table.
type Figure struct {
	// IDs are the FigureData.IDs Run returns, in order; each is also a
	// -fig name and an output file name.
	IDs []string
	// Aliases maps each further -fig name to the ID it selects.
	Aliases map[string]string
	// Extension marks a beyond-the-paper study: `-fig extensions` runs
	// these entries, `-fig all` the others.
	Extension bool
	// Run computes the entry's figures. A simulation figure runs all of
	// its floods as one runner batch (see batch).
	Run func(SimOptions) ([]*FigureData, error)
}

// Figures is the figure table, the one list of figure IDs: the paper's
// figures in paper order, then the extension studies. cmd/figures
// resolves every -fig name against it and runs each entry it needs once.
var Figures = []Figure{
	{IDs: []string{"fig3"}, Aliases: map[string]string{"3": "fig3"}, Run: analytic(Fig3)},
	{IDs: []string{"table1"}, Aliases: map[string]string{"tablei": "table1", "t1": "table1"}, Run: analytic(TableI)},
	{IDs: []string{"fig5"}, Aliases: map[string]string{"5": "fig5"}, Run: analytic(Fig5)},
	{IDs: []string{"fig6"}, Aliases: map[string]string{"6": "fig6"}, Run: analytic(Fig6)},
	{IDs: []string{"fig7"}, Aliases: map[string]string{"7": "fig7"}, Run: analytic(Fig7)},
	{IDs: []string{"fig8"}, Aliases: map[string]string{"8": "fig8"}, Run: func(o SimOptions) ([]*FigureData, error) {
		return single(Fig8(o.TopoSeed))
	}},
	{IDs: []string{"fig9"}, Aliases: map[string]string{"9": "fig9"}, Run: simulated(Fig9)},
	{IDs: []string{"fig10", "fig11"}, Aliases: map[string]string{"10": "fig10", "11": "fig11"}, Run: func(o SimOptions) ([]*FigureData, error) {
		f10, f11, err := Fig10And11(o)
		if err != nil {
			return nil, err
		}
		return []*FigureData{f10, f11}, nil
	}},
	{IDs: []string{"gw"}, Extension: true, Run: analytic(GaltonWatson)},
	{IDs: []string{"halfduplex"}, Extension: true, Run: analytic(HalfDuplex)},
	{IDs: []string{"crosslayer"}, Extension: true, Run: simulated(CrossLayer)},
	{IDs: []string{"granularity"}, Extension: true, Run: simulated(ScheduleGranularity)},
	{IDs: []string{"nodecdf"}, Extension: true, Run: simulated(NodeDelayCDF)},
	{IDs: []string{"syncerr"}, Extension: true, Run: simulated(SyncError)},
	{IDs: []string{"hetero"}, Extension: true, Run: simulated(Heterogeneity)},
	{IDs: []string{"backlog"}, Extension: true, Run: simulated(Backlog)},
	{IDs: []string{"robustness"}, Extension: true, Run: simulated(Robustness)},
	{IDs: []string{"faults"}, Extension: true, Run: simulated(Faults)},
	{IDs: []string{"scale"}, Extension: true, Run: simulated(TrickleScalability)},
}

func single(fd *FigureData, err error) ([]*FigureData, error) {
	if err != nil {
		return nil, err
	}
	return []*FigureData{fd}, nil
}

func analytic(f func() (*FigureData, error)) func(SimOptions) ([]*FigureData, error) {
	return func(SimOptions) ([]*FigureData, error) { return single(f()) }
}

func simulated(f func(SimOptions) (*FigureData, error)) func(SimOptions) ([]*FigureData, error) {
	return func(o SimOptions) ([]*FigureData, error) { return single(f(o)) }
}
