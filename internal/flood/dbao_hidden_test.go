package flood

import (
	"fmt"
	"slices"
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// TestDBAOHiddenMemoMatchesBruteForce runs DBAO on the GreenOrbs field
// with positions and without (audibility then falls back to adjacency),
// at carrier-sense factors 1, 1.2 and 2.5, and requires every hidden list
// the run built to equal the brute-force set {j > wi : row[j] cannot hear
// row[wi]} of its rank entry, in ascending order, with the lists filling
// the arena exactly. Some lists must be built, and some must be non-empty.
func TestDBAOHiddenMemoMatchesBruteForce(t *testing.T) {
	posFree := topology.GreenOrbs(1).Clone()
	posFree.Pos = nil
	graphs := map[string]*topology.Graph{"positioned": topology.GreenOrbs(1), "position-free": posFree}
	for name, g := range graphs {
		for _, csf := range []float64{1, 1.2, 2.5} {
			label := fmt.Sprintf("%s cs=%v", name, csf)
			d := &DBAO{CSRangeFactor: csf}
			_, err := sim.Run(sim.Config{
				Graph:     g,
				Schedules: schedule.AssignUniform(g.N(), 20, rngutil.New(5).SubName("schedule")),
				Protocol:  d,
				M:         10,
				Seed:      5,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			built, nonEmpty, arena := 0, 0, 0
			for r := 0; r < g.N(); r++ {
				row, _ := d.rank.Row(r)
				for wi := range row {
					k := int(d.offsets[r]) + wi
					if d.hidden[k] == 0 {
						continue
					}
					var want []int32
					for j := wi + 1; j < len(row); j++ {
						if !d.audible.has(int(row[j]), int(row[wi])) {
							want = append(want, int32(j))
						}
					}
					got := d.hiddenOf(r, wi, row) // built: only reads the memo
					if !slices.Equal(got, want) {
						t.Fatalf("%s: receiver %d, winner index %d: hidden list %v, brute force %v", label, r, wi, got, want)
					}
					built++
					arena += 1 + len(got)
					if len(got) > 0 {
						nonEmpty++
					}
				}
			}
			if arena != len(d.hiddenIdx) {
				t.Fatalf("%s: built lists cover %d arena entries of %d", label, arena, len(d.hiddenIdx))
			}
			if built == 0 {
				t.Fatalf("%s: no hidden list built", label)
			}
			if csf < 2.5 && nonEmpty == 0 {
				t.Fatalf("%s: every built hidden list is empty", label)
			}
		}
	}
}
