package experiments

import (
	"math"
	"strings"
	"testing"
)

func tinyOpts() SimOptions {
	return SimOptions{
		TopoSeed:  1,
		Seed:      1,
		M:         8,
		Runs:      1,
		Coverage:  0.99,
		Duties:    []float64{0.05, 0.20},
		Protocols: []string{"opt", "dbao", "of"},
		// Keep the scalability ladder tiny; the full 300→100k default is
		// for cmd/figures runs, not unit tests.
		ScaleSizes: []int{300, 600},
	}
}

func TestFig3(t *testing.T) {
	fd, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if fd.ID != "fig3" || len(fd.TableRows) == 0 {
		t.Fatalf("bad figure: %+v", fd)
	}
	// 5 nodes per snapshot; at least 4 snapshots (completion at c>=3).
	if len(fd.TableRows)%5 != 0 || len(fd.TableRows) < 20 {
		t.Fatalf("unexpected row count %d", len(fd.TableRows))
	}
	out := fd.Render()
	if !strings.Contains(out, "fig3") || !strings.Contains(out, "pkt0") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestTableI(t *testing.T) {
	fd, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.TableRows) != 20 {
		t.Fatalf("rows = %d, want 20", len(fd.TableRows))
	}
	// Row 0: p=0, Wp(M=5) = m = 11, Wp(M=20) = 11.
	if fd.TableRows[0][1] != "11" || fd.TableRows[0][2] != "11" {
		t.Fatalf("row 0 = %v", fd.TableRows[0])
	}
	// Last row: Wp saturates at 2m-1 = 21 for the M>=m regime.
	if fd.TableRows[19][2] != "21" {
		t.Fatalf("row 19 = %v", fd.TableRows[19])
	}
	// The M=5 column runs out after p=4.
	if fd.TableRows[5][1] != "-" {
		t.Fatalf("row 5 = %v", fd.TableRows[5])
	}
}

func TestFig5(t *testing.T) {
	fd, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fd.Series))
	}
	// Every series is nondecreasing in M, and the knee makes later slope
	// shallower than earlier slope.
	for _, s := range fd.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s not monotone", s.Name)
			}
		}
	}
	// Fig. 5 anchor values.
	n1024 := fd.SeriesByName("T=5 N=1024")
	if n1024 == nil || n1024.Y[19] != 100 {
		t.Fatalf("N=1024 FDL(M=20) should be 100, got %+v", n1024)
	}
	duty100 := fd.SeriesByName("N=1024 duty=100%")
	if duty100 == nil || duty100.Y[19] != 20 {
		t.Fatalf("duty 100%% FDL(M=20) should be 20, got %+v", duty100)
	}
}

func TestFig6(t *testing.T) {
	fd, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fd.Series))
	}
	for _, n := range []string{"256", "1024"} {
		lo := fd.SeriesByName("N=" + n + " lower bound")
		hi := fd.SeriesByName("N=" + n + " upper bound")
		if lo == nil || hi == nil {
			t.Fatalf("missing bound series for N=%s", n)
		}
		for i := range lo.Y {
			if lo.Y[i] > hi.Y[i] {
				t.Fatalf("N=%s bounds inverted at %d", n, i)
			}
		}
	}
}

func TestFig7(t *testing.T) {
	fd, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 4 {
		t.Fatalf("series = %d", len(fd.Series))
	}
	// Worst link quality (k=2) dominates at every duty cycle.
	k2 := fd.Series[0]
	k125 := fd.Series[3]
	if !strings.Contains(k2.Name, "k=2.00") || !strings.Contains(k125.Name, "k=1.25") {
		t.Fatalf("series order changed: %s / %s", k2.Name, k125.Name)
	}
	for i := range k2.Y {
		if k2.Y[i] <= k125.Y[i] {
			t.Fatalf("lossier links should predict higher delay at duty %v", k2.X[i])
		}
	}
	// Delay decreases with duty cycle along each curve.
	for _, s := range fd.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Fatalf("%s not decreasing in duty", s.Name)
			}
		}
	}
}

func TestFig8(t *testing.T) {
	fd, err := Fig8(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 1 || len(fd.Series[0].X) != 298 {
		t.Fatalf("scatter should have 298 points")
	}
	found := false
	for _, row := range fd.TableRows {
		if row[0] == "nodes" && row[1] == "298" {
			found = true
		}
	}
	if !found {
		t.Fatal("node count row missing")
	}
}

func TestFig9Quick(t *testing.T) {
	fd, err := Fig9(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Total delay plus the transmission-delay component per protocol.
	if len(fd.Series) != 6 {
		t.Fatalf("series = %d", len(fd.Series))
	}
	for _, s := range fd.Series {
		if len(s.Y) == 0 {
			t.Fatalf("%s empty", s.Name)
		}
		for _, y := range s.Y {
			if y < 0 || math.IsNaN(y) {
				t.Fatalf("%s has negative delay %v", s.Name, y)
			}
		}
	}
	// The tx-delay component sits below the total for every protocol; it
	// is what the paper calls "the actual packet transmission consumes
	// almost the same in all three protocols".
	for _, name := range []string{"OPT", "DBAO", "OF"} {
		total := fd.SeriesByName(name)
		tx := fd.SeriesByName(name + " tx-delay")
		if total == nil || tx == nil {
			t.Fatalf("missing series pair for %s", name)
		}
		for i := range tx.Y {
			if tx.Y[i] > total.Y[i] {
				t.Fatalf("%s tx-delay %v above total %v", name, tx.Y[i], total.Y[i])
			}
		}
	}
	// OPT's series must sit at or below OF's at the last index.
	opt := fd.SeriesByName("OPT")
	of := fd.SeriesByName("OF")
	if opt == nil || of == nil {
		t.Fatal("missing protocol series")
	}
	if opt.Y[len(opt.Y)-1] > of.Y[len(of.Y)-1] {
		t.Fatalf("OPT (%v) above OF (%v) at last packet", opt.Y[len(opt.Y)-1], of.Y[len(of.Y)-1])
	}
}

func TestFig10And11Quick(t *testing.T) {
	f10, f11, err := Fig10And11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 10: 3 protocols + predicted bound.
	if len(f10.Series) != 4 {
		t.Fatalf("fig10 series = %d", len(f10.Series))
	}
	bound := f10.SeriesByName("Predicted Lower Bound")
	opt := f10.SeriesByName("OPT")
	of := f10.SeriesByName("OF")
	if bound == nil || opt == nil || of == nil {
		t.Fatal("missing series")
	}
	for i := range bound.Y {
		if bound.Y[i] > opt.Y[i] {
			t.Fatalf("analytic bound %v above OPT %v at duty %v%%", bound.Y[i], opt.Y[i], bound.X[i])
		}
		if opt.Y[i] > of.Y[i]*1.05 {
			t.Fatalf("OPT above OF at duty %v%%", bound.X[i])
		}
	}
	// Delay at the lowest duty must exceed delay at the highest (Fig 10's
	// deterioration) for every protocol.
	for _, s := range f10.Series {
		if s.Y[0] <= s.Y[len(s.Y)-1] {
			t.Fatalf("%s delay does not deteriorate at low duty: %v", s.Name, s.Y)
		}
	}
	// Fig 11: failures present for each protocol, positive.
	if len(f11.Series) != 3 {
		t.Fatalf("fig11 series = %d", len(f11.Series))
	}
	for _, s := range f11.Series {
		for i, y := range s.Y {
			if y < 0 {
				t.Fatalf("%s negative failures at %d", s.Name, i)
			}
		}
	}
}

func TestGaltonWatsonFigure(t *testing.T) {
	fd, err := GaltonWatson()
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 6 { // 5 paths + mean line
		t.Fatalf("series = %d", len(fd.Series))
	}
	// Late generations concentrate near 1 (Lemma 1): every path's final
	// normalized value is within a few limit-standard-deviations of 1.
	for _, s := range fd.Series[:5] {
		last := s.Y[len(s.Y)-1]
		if last < 0.1 || last > 4 {
			t.Fatalf("%s final normalized population %v implausible", s.Name, last)
		}
	}
}

// runTable runs every entry of the figure table whose Extension flag is
// extension, in table order.
func runTable(t *testing.T, opts SimOptions, extension bool) []*FigureData {
	t.Helper()
	var figs []*FigureData
	for _, e := range Figures {
		if e.Extension != extension {
			continue
		}
		out, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%v: %v", e.IDs, err)
		}
		figs = append(figs, out...)
	}
	return figs
}

func TestRenderAllQuick(t *testing.T) {
	figs := runTable(t, tinyOpts(), false)
	if len(figs) != 9 {
		t.Fatalf("got %d figures, want 9", len(figs))
	}
	ids := map[string]bool{}
	for _, fd := range figs {
		if out := fd.Render(); len(out) < 40 {
			t.Fatalf("%s render too small", fd.ID)
		}
		ids[fd.ID] = true
	}
	for _, want := range []string{"fig3", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !ids[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestAllExtensionsQuick(t *testing.T) {
	opts := tinyOpts()
	opts.M = 10
	figs := runTable(t, opts, true)
	want := []string{"gw", "halfduplex", "crosslayer", "granularity", "nodecdf", "syncerr", "hetero", "backlog", "robustness", "faults", "scale"}
	if len(figs) != len(want) {
		t.Fatalf("got %d extension figures, want %d", len(figs), len(want))
	}
	for i, fd := range figs {
		if fd.ID != want[i] {
			t.Fatalf("figure %d = %q, want %q", i, fd.ID, want[i])
		}
		if len(fd.Render()) < 40 {
			t.Fatalf("%s renders too small", fd.ID)
		}
	}
}

func TestSeriesByNameMissing(t *testing.T) {
	fd := &FigureData{}
	if fd.SeriesByName("nope") != nil {
		t.Fatal("expected nil for missing series")
	}
}

func TestFaultsQuick(t *testing.T) {
	opts := tinyOpts()
	opts.Protocols = []string{"opt"}
	fd, err := Faults(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fd.ID != "faults" {
		t.Fatalf("ID = %q", fd.ID)
	}
	// One clean and one faulted delay curve for the single protocol.
	if len(fd.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fd.Series))
	}
	if len(fd.TableRows) != 1 || len(fd.TableRows[0]) != len(fd.TableHeaders) {
		t.Fatalf("table shape = %dx%d", len(fd.TableRows), len(fd.TableRows[0]))
	}
	if !strings.HasSuffix(fd.TableRows[0][3], "x") {
		t.Fatalf("inflation cell = %q", fd.TableRows[0][3])
	}
	if len(fd.Render()) < 40 {
		t.Fatal("render too small")
	}
}
