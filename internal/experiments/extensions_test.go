package experiments

import (
	"testing"
)

func TestNodeDelayCDF(t *testing.T) {
	opts := tinyOpts()
	fd, err := NodeDelayCDF(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 3 {
		t.Fatalf("series = %d", len(fd.Series))
	}
	for _, s := range fd.Series {
		// CDF: x nondecreasing, y strictly increasing to ~1.
		for i := 1; i < len(s.X); i++ {
			if s.X[i] < s.X[i-1] {
				t.Fatalf("%s delays not sorted", s.Name)
			}
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("%s CDF not increasing", s.Name)
			}
		}
		last := s.Y[len(s.Y)-1]
		if last < 0.9 || last > 1.0 {
			t.Fatalf("%s CDF tops out at %v", s.Name, last)
		}
	}
	if len(fd.TableRows) != 3 {
		t.Fatalf("rows = %d", len(fd.TableRows))
	}
}

func TestRobustnessExperiment(t *testing.T) {
	opts := tinyOpts()
	fd, err := Robustness(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 deployments × 3 protocols.
	if len(fd.Series) != 6 {
		t.Fatalf("series = %d", len(fd.Series))
	}
	byName := map[string]*Series{}
	for i := range fd.Series {
		byName[fd.Series[i].Name] = &fd.Series[i]
	}
	for _, dep := range []string{"forest", "testbed"} {
		opt := byName[dep+" OPT"]
		of := byName[dep+" OF"]
		if opt == nil || of == nil {
			t.Fatalf("missing series for %s", dep)
		}
		// Ordering holds at every measured duty.
		for i := range opt.Y {
			if opt.Y[i] > of.Y[i]*1.05 {
				t.Fatalf("%s: OPT %v above OF %v", dep, opt.Y[i], of.Y[i])
			}
		}
		// Low duty is worse than high duty.
		if opt.Y[0] <= opt.Y[len(opt.Y)-1] {
			t.Fatalf("%s: no low-duty blow-up", dep)
		}
	}
}

func TestBacklogExperiment(t *testing.T) {
	opts := tinyOpts()
	opts.M = 15
	fd, err := Backlog(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Series) != 2 || len(fd.TableRows) != 2 {
		t.Fatalf("bad figure: %d series, %d rows", len(fd.Series), len(fd.TableRows))
	}
	// The saturated configuration's peak backlog must exceed the stable
	// one's.
	peak := func(s *Series) float64 {
		m := 0.0
		for _, y := range s.Y {
			if y > m {
				m = y
			}
		}
		return m
	}
	saturated := peak(&fd.Series[0])
	stable := peak(&fd.Series[1])
	if saturated <= stable {
		t.Fatalf("saturated backlog %v not above stable %v", saturated, stable)
	}
	// Back-to-back injection at 5%% duty queues nearly every packet.
	if saturated < float64(opts.M)*0.8 {
		t.Fatalf("saturated backlog %v should approach M=%d", saturated, opts.M)
	}
	// Backlog series never goes negative and ends at zero (all covered).
	for _, s := range fd.Series {
		for _, y := range s.Y {
			if y < 0 {
				t.Fatal("negative backlog")
			}
		}
		if s.Y[len(s.Y)-1] != 0 {
			t.Fatalf("%s backlog does not drain to 0", s.Name)
		}
	}
}

func TestHeterogeneityExperiment(t *testing.T) {
	opts := tinyOpts()
	fd, err := Heterogeneity(opts)
	if err != nil {
		t.Fatal(err)
	}
	best := fd.SeriesByName("best-link (oracle)")
	blind := fd.SeriesByName("quality-blind (naive)")
	if best == nil || blind == nil || len(best.Y) != 4 {
		t.Fatalf("bad series: %+v", fd.Series)
	}
	// Diversity gain: at the widest spread, quality-aware selection is
	// clearly faster than at zero spread...
	if best.Y[3] >= best.Y[0] {
		t.Fatalf("best-link did not exploit diversity: %.1f at std 0.3 vs %.1f at 0", best.Y[3], best.Y[0])
	}
	// ...and clearly faster than the quality-blind baseline.
	if best.Y[3] >= blind.Y[3] {
		t.Fatalf("best-link %.1f not below quality-blind %.1f at std 0.3", best.Y[3], blind.Y[3])
	}
	// The blind protocol cannot exploit spread: it must not speed up much.
	if blind.Y[3] < blind.Y[0]*0.7 {
		t.Fatalf("quality-blind protocol gained from spread it cannot see: %.1f vs %.1f", blind.Y[3], blind.Y[0])
	}
	pred := fd.SeriesByName("homogeneous k-class prediction")
	if pred == nil || pred.Y[0] != pred.Y[3] {
		t.Fatal("prediction series should be flat")
	}
}

func TestSyncErrorExperiment(t *testing.T) {
	opts := tinyOpts()
	opts.Protocols = []string{"opt"}
	fd, err := SyncError(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := fd.SeriesByName("OPT")
	if s == nil || len(s.Y) != 5 {
		t.Fatalf("bad series: %+v", fd.Series)
	}
	// Delay grows with sync error; 40% error should cost at least 20% more
	// delay and at most ~4x (graceful degradation).
	if s.Y[4] <= s.Y[0]*1.05 {
		t.Fatalf("40%% sync error delay %.0f barely above clean %.0f", s.Y[4], s.Y[0])
	}
	if s.Y[4] > s.Y[0]*4 {
		t.Fatalf("sync degradation not graceful: %.0f vs %.0f", s.Y[4], s.Y[0])
	}
}
