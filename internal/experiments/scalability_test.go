package experiments

import "testing"

func TestTrickleScalabilityQuick(t *testing.T) {
	opts := tinyOpts()
	fd, err := TrickleScalability(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fd.ID != "scale" {
		t.Fatalf("ID = %q", fd.ID)
	}
	if len(fd.Series) != 2 {
		t.Fatalf("got %d series, want trickle + dflood", len(fd.Series))
	}
	for _, s := range fd.Series {
		if len(s.X) != len(opts.ScaleSizes) {
			t.Fatalf("%s: %d points, want %d", s.Name, len(s.X), len(opts.ScaleSizes))
		}
		for i := range s.X {
			if i > 0 && s.X[i] <= s.X[i-1] {
				t.Fatalf("%s: sizes not increasing", s.Name)
			}
			if s.Y[i] <= 0 {
				t.Fatalf("%s: non-positive per-node load at N=%v", s.Name, s.X[i])
			}
			// The Meyfroyt qualitative marker, loosely pinned: per-node
			// load must not blow up with N (constant density ⇒ bounded
			// per-node Trickle load). A factor-4 envelope over the
			// smallest size keeps the test robust to topology noise
			// while still failing on superlinear message growth.
			if s.Y[i] > 4*s.Y[0] {
				t.Fatalf("%s: per-node load grows with N: %v at N=%v vs %v at N=%v",
					s.Name, s.Y[i], s.X[i], s.Y[0], s.X[0])
			}
		}
	}
	if len(fd.TableRows) != 2*len(opts.ScaleSizes) {
		t.Fatalf("got %d table rows", len(fd.TableRows))
	}
	if len(fd.Render()) < 40 {
		t.Fatal("render too small")
	}
}

// TestQuickScaleLadder keeps `figures -quick` off the full 300→100k
// scalability ladder: an empty ScaleSizes would fall back to it.
func TestQuickScaleLadder(t *testing.T) {
	sizes := QuickSimOptions().ScaleSizes
	if len(sizes) == 0 {
		t.Fatal("QuickSimOptions leaves ScaleSizes empty (full default ladder)")
	}
	for _, n := range sizes {
		if n >= 10000 {
			t.Fatalf("quick ladder %v reaches %d nodes", sizes, n)
		}
	}
}
