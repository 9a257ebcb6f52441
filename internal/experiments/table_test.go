package experiments

import (
	"slices"
	"strings"
	"testing"

	"ldcflood/internal/runner"
)

// TestFiguresIndependentOfWorkers runs every entry of the figure table at
// one and at three workers. The renderings must be identical, each entry
// must emit exactly its IDs, and every simulation entry must run its
// floods as one runner batch: its progress snapshots share one Total and
// count Done up to it once. Under -race this also catches two jobs
// sharing a Protocol.
func TestFiguresIndependentOfWorkers(t *testing.T) {
	analytic := map[string]bool{
		"fig3": true, "table1": true, "fig5": true, "fig6": true,
		"fig7": true, "fig8": true, "gw": true, "halfduplex": true,
	}
	for _, e := range Figures {
		t.Run(e.IDs[0], func(t *testing.T) {
			var renders []string
			for _, workers := range []int{1, 3} {
				var snaps []runner.Progress
				opts := QuickSimOptions()
				opts.M = 5
				opts.Workers = workers
				opts.Progress = func(p runner.Progress) { snaps = append(snaps, p) }
				figs, err := e.Run(opts)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				var ids []string
				var sb strings.Builder
				for _, fd := range figs {
					ids = append(ids, fd.ID)
					sb.WriteString(fd.Render())
				}
				if !slices.Equal(ids, e.IDs) {
					t.Fatalf("emitted %v, want %v", ids, e.IDs)
				}
				renders = append(renders, sb.String())
				if simulated := len(snaps) > 0; simulated == analytic[e.IDs[0]] {
					t.Fatalf("workers %d: %d progress snapshots for a figure that is analytic=%v", workers, len(snaps), analytic[e.IDs[0]])
				}
				for i, p := range snaps {
					if p.Total != snaps[0].Total || p.Done != i+1 {
						t.Fatalf("workers %d: snapshot %d is %d/%d after total %d: more than one batch", workers, i, p.Done, p.Total, snaps[0].Total)
					}
				}
				if n := len(snaps); n > 0 && snaps[n-1].Done != snaps[n-1].Total {
					t.Fatalf("workers %d: batch ended at %d/%d", workers, snaps[n-1].Done, snaps[n-1].Total)
				}
			}
			if renders[0] != renders[1] {
				t.Fatal("rendering differs between 1 and 3 workers")
			}
		})
	}
}
