package sim

// Model-based test for the possession journal (World.TakeHolderChanges):
// replaying it into a model of who holds what must reproduce the world's
// possession bits at every visited slot, across deliveries, overhearing,
// crashes that wipe a node's buffer and reboots that re-disseminate to
// it, and on packet counts below, at and just past each 64-packet word
// boundary.

import (
	"fmt"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
)

// holderProbe drives chaosProtocol and replays the possession journal
// into its model at the top of every visited slot.
type holderProbe struct {
	chaosProtocol
	t      *testing.T
	label  string
	w      *World
	checks int
	// held replays the journal: held[p*n+v] is whether v holds p.
	held []bool
}

func (h *holderProbe) Reset(w *World) { h.w = w }

func (h *holderProbe) Intents(w *World) []Intent {
	h.replay(fmt.Sprintf("slot %d", w.Now()))
	return h.chaosProtocol.Intents(w)
}

// replay drains the possession journal into h.held, checking that every
// entry flips a bit the model holds the other way, and then that the
// model equals the world's possession bits.
func (h *holderProbe) replay(when string) {
	h.t.Helper()
	w := h.w
	n := w.Graph.N()
	if h.held == nil {
		h.held = make([]bool, w.M*n)
	}
	for _, c := range w.TakeHolderChanges() {
		i := int(c.Packet)*n + int(c.Node)
		if h.held[i] != (c.Delta < 0) || (c.Delta != 1 && c.Delta != -1) {
			h.t.Fatalf("%s, %s: journal entry %+v against model holding %v", h.label, when, c, h.held[i])
		}
		h.held[i] = c.Delta > 0
	}
	for p := 0; p < w.M; p++ {
		for v := 0; v < n; v++ {
			if h.held[p*n+v] != w.Has(p, v) {
				h.t.Fatalf("%s, %s: journal replay says node %d holds packet %d: %v, world %v", h.label, when, v, p, h.held[p*n+v], w.Has(p, v))
			}
		}
	}
	h.checks++
}

func TestHolderJournalModel(t *testing.T) {
	dropped := 0
	for _, m := range []int{1, 64, 65, 130} {
		for seed := uint64(1); seed <= 8; seed++ {
			r := rngutil.New(seed*1009 + uint64(m))
			g := randomConnectedGraph(r)
			n := g.N()
			fs := &fault.Schedule{}
			crashed := map[int]bool{}
			for k := 1 + r.Intn(4); k > 0; k-- {
				node := 1 + r.Intn(n-1)
				if crashed[node] {
					continue
				}
				crashed[node] = true
				at := int64(r.Intn(400))
				reboot := int64(-1)
				if r.Bool(0.7) {
					reboot = at + 1 + int64(r.Intn(300))
				}
				fs.Crashes = append(fs.Crashes, fault.Crash{Node: node, At: at, RebootAt: reboot})
			}
			probe := &holderProbe{
				chaosProtocol: chaosProtocol{
					rng:      r.SubName("chaos"),
					density:  0.2 + 0.6*r.Float64(),
					collide:  r.Bool(0.5),
					overhear: r.Bool(0.7),
				},
				t:     t,
				label: fmt.Sprintf("M=%d seed=%d", m, seed),
			}
			res, err := Run(Config{
				Graph:          g,
				Schedules:      schedule.AssignUniform(n, 1+r.Intn(6), r.SubName("schedule")),
				Protocol:       probe,
				M:              m,
				InjectInterval: 1 + r.Intn(2),
				Coverage:       1,
				Seed:           seed,
				MaxSlots:       1500,
				Faults:         fs,
			})
			if err != nil {
				t.Fatalf("%s: %v", probe.label, err)
			}
			probe.replay("end of run")
			if probe.checks < 2 {
				t.Fatalf("%s: only %d checks ran", probe.label, probe.checks)
			}
			dropped += res.CrashDropped
		}
	}
	if dropped == 0 {
		t.Fatal("grid never exercised a crash drop")
	}
}

// journalProbe never takes the possession journal.
type journalProbe struct {
	chaosProtocol
	t *testing.T
	w *World
	// held is how many packet copies the network held at the previous
	// Intents call; busy counts the calls whose journal was non-empty.
	held, busy int
}

func (j *journalProbe) Reset(w *World) {
	j.w = w
	j.held = totalHeld(w)
}

func (j *journalProbe) Intents(w *World) []Intent {
	j.check(fmt.Sprintf("slot %d", w.Now()))
	return j.chaosProtocol.Intents(w)
}

// check requires the journal to hold exactly the possession changes since
// the previous Intents call. With no faults every change is a gain, so
// that is the growth of the network's packet copies.
func (j *journalProbe) check(when string) {
	j.t.Helper()
	now := totalHeld(j.w)
	if got, want := len(j.w.holderLog), now-j.held; got != want {
		j.t.Fatalf("%s: journal holds %d changes, want the %d since the previous Intents call", when, got, want)
	}
	if now > j.held {
		j.busy++
	}
	j.held = now
}

func totalHeld(w *World) int {
	sum := 0
	for _, c := range w.heldCount {
		sum += c
	}
	return sum
}

// TestHolderJournalEmptiedAfterIntents runs a protocol that never drains
// the possession journal: the engine must empty it after every
// Intents call, so it never holds more than one slot's changes.
func TestHolderJournalEmptiedAfterIntents(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rngutil.New(seed)
		g := randomConnectedGraph(r)
		probe := &journalProbe{
			chaosProtocol: chaosProtocol{rng: r.SubName("chaos"), density: 0.5, overhear: seed%2 == 0},
			t:             t,
		}
		_, err := Run(Config{
			Graph:     g,
			Schedules: schedule.AssignUniform(g.N(), 3, r.SubName("schedule")),
			Protocol:  probe,
			M:         4,
			Coverage:  1,
			Seed:      seed,
			MaxSlots:  2000,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		probe.check("end of run")
		if probe.busy < 2 {
			t.Fatalf("seed %d: possession changed before only %d Intents calls", seed, probe.busy)
		}
	}
}
