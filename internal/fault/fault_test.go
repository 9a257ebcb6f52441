package fault

import (
	"strings"
	"testing"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/topology"
)

// line makes a path graph 0-1-2-...-(n-1) with uniform PRR.
func line(n int, prr float64) *topology.Graph {
	g := topology.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddLink(i, i+1, prr)
	}
	return g
}

func TestValidateAcceptsNilAndEmpty(t *testing.T) {
	g := line(4, 0.8)
	var s *Schedule
	if err := s.Validate(g); err != nil {
		t.Fatalf("nil schedule: %v", err)
	}
	if err := (&Schedule{}).Validate(g); err != nil {
		t.Fatalf("empty schedule: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	g := line(6, 0.8)
	cases := []struct {
		name string
		s    Schedule
		want string
	}{
		{"bad prr range", Schedule{Links: []LinkRule{{MinPRR: 0.9, MaxPRR: 0.5}}}, "PRR selector"},
		{"pgb out of range", Schedule{Links: []LinkRule{{PGB: 1.0}}}, "transition probabilities"},
		{"bad scale", Schedule{Links: []LinkRule{{BadScale: 1.5}}}, "bad-state scale"},
		{"start bad", Schedule{Links: []LinkRule{{StartBad: -0.1}}}, "start-bad"},
		{"pair out of range", Schedule{Links: []LinkRule{{Pairs: [][2]int{{0, 9}}}}}, "outside"},
		{"pair non-link", Schedule{Links: []LinkRule{{Pairs: [][2]int{{0, 3}}}}}, "not a link"},
		{"crash source", Schedule{Crashes: []Crash{{Node: 0, At: 5, RebootAt: -1}}}, "source"},
		{"crash out of range", Schedule{Crashes: []Crash{{Node: 6, At: 5, RebootAt: -1}}}, "outside"},
		{"crash negative slot", Schedule{Crashes: []Crash{{Node: 1, At: -1, RebootAt: -1}}}, "negative slot"},
		{"reboot before crash", Schedule{Crashes: []Crash{{Node: 1, At: 5, RebootAt: 5}}}, "not after"},
		{"overlapping crashes", Schedule{Crashes: []Crash{
			{Node: 1, At: 5, RebootAt: 20},
			{Node: 1, At: 10, RebootAt: 30},
		}}, "overlapping"},
		{"overlap with permanent", Schedule{Crashes: []Crash{
			{Node: 1, At: 5, RebootAt: -1},
			{Node: 1, At: 100, RebootAt: 200},
		}}, "overlapping"},
		{"jam empty window", Schedule{Jams: []Jam{{From: 10, Until: 10, Nodes: []int{1}}}}, "window"},
		{"jam negative radius", Schedule{Jams: []Jam{{From: 0, Until: 5, Radius: -1}}}, "negative radius"},
		{"jam disc without positions", Schedule{Jams: []Jam{{From: 0, Until: 5, Radius: 3}}}, "no positions"},
		{"jam selects nothing", Schedule{Jams: []Jam{{From: 0, Until: 5}}}, "selects no nodes"},
		{"jam node out of range", Schedule{Jams: []Jam{{From: 0, Until: 5, Nodes: []int{-1}}}}, "outside"},
	}
	for _, tc := range cases {
		err := tc.s.Validate(g)
		if err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAcceptsDisjointCrashIntervals(t *testing.T) {
	g := line(4, 0.8)
	s := Schedule{Crashes: []Crash{
		{Node: 1, At: 5, RebootAt: 20},
		{Node: 1, At: 20, RebootAt: 40}, // touching at the boundary is fine
		{Node: 2, At: 0, RebootAt: -1},
	}}
	if err := s.Validate(g); err != nil {
		t.Fatalf("disjoint intervals rejected: %v", err)
	}
}

func TestCompileStaticRule(t *testing.T) {
	g := line(4, 0.8)
	s := &Schedule{Links: []LinkRule{{BadScale: 0.25, StartBad: 1}}}
	inj := s.Compile(g, rngutil.New(7))
	if got := inj.LinkScale(0, 0, 1); got != 0.25 {
		t.Fatalf("LinkScale = %v, want 0.25", got)
	}
	// Frozen chains never move.
	if got := inj.LinkScale(1_000_000, 0, 1); got != 0.25 {
		t.Fatalf("LinkScale at far slot = %v, want 0.25", got)
	}
}

// TestOneSidedChainAbsorbs covers link rules where exactly one transition
// probability is zero: the chain must absorb into the zero-exit state
// after its first flip and stay there forever, even at far horizons
// (regression test for an int64 overflow that made such chains oscillate).
func TestOneSidedChainAbsorbs(t *testing.T) {
	g := line(3, 0.6)
	const far = int64(1) << 40
	// PGB > 0, PBG = 0: the bad state is absorbing. The chain starts good,
	// flips bad within a few slots (PGB = 0.5), and must stay bad.
	down := &Schedule{Links: []LinkRule{{PGB: 0.5, PBG: 0, BadScale: 0.25}}}
	if err := down.Validate(g); err != nil {
		t.Fatal(err)
	}
	inj := down.Compile(g, rngutil.New(3))
	if got := inj.LinkScale(100, 0, 1); got != 0.25 {
		t.Errorf("permanently-degrading chain at slot 100: scale %v, want 0.25", got)
	}
	if got := inj.LinkScale(far, 0, 1); got != 0.25 {
		t.Errorf("permanently-degrading chain at far slot: scale %v, want 0.25", got)
	}
	// Mirror: PBG > 0, PGB = 0, starting bad — the good state is absorbing.
	up := &Schedule{Links: []LinkRule{{PGB: 0, PBG: 0.5, BadScale: 0.25, StartBad: 1}}}
	if err := up.Validate(g); err != nil {
		t.Fatal(err)
	}
	inj = up.Compile(g, rngutil.New(3))
	if got := inj.LinkScale(100, 0, 1); got != 1 {
		t.Errorf("permanently-recovering chain at slot 100: scale %v, want 1", got)
	}
	if got := inj.LinkScale(far, 0, 1); got != 1 {
		t.Errorf("permanently-recovering chain at far slot: scale %v, want 1", got)
	}
}

func TestCompileSelectorsAndPrecedence(t *testing.T) {
	g := topology.New(4)
	g.AddLink(0, 1, 0.9) // governed only by the pair rule
	g.AddLink(1, 2, 0.3) // in the [0.2, 0.5] class
	g.AddLink(2, 3, 0.7) // ungoverned
	s := &Schedule{Links: []LinkRule{
		{MinPRR: 0.2, MaxPRR: 0.5, BadScale: 0.5, StartBad: 1},
		{Pairs: [][2]int{{1, 0}}, BadScale: 0, StartBad: 1}, // pairs-only: class bounds ignored
	}}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	inj := s.Compile(g, rngutil.New(1))
	if got := inj.LinkScale(0, 1, 2); got != 0.5 {
		t.Errorf("class link scale = %v, want 0.5", got)
	}
	if got := inj.LinkScale(0, 0, 1); got != 0 {
		t.Errorf("pair link scale = %v, want 0 (silenced)", got)
	}
	if got := inj.LinkScale(0, 2, 3); got != 1 {
		t.Errorf("ungoverned link scale = %v, want 1", got)
	}
}

func TestCompileDeterministic(t *testing.T) {
	g := line(10, 0.6)
	s := &Schedule{Links: []LinkRule{{PGB: 0.05, PBG: 0.2, BadScale: 0.3, StartBad: 0.5}}}
	a := s.Compile(g, rngutil.New(42))
	b := s.Compile(g, rngutil.New(42))
	for t64 := int64(0); t64 < 500; t64++ {
		for u := 0; u < 9; u++ {
			if sa, sb := a.LinkScale(t64, u, u+1), b.LinkScale(t64, u, u+1); sa != sb {
				t.Fatalf("slot %d link %d-%d: %v vs %v", t64, u, u+1, sa, sb)
			}
		}
	}
	// A different seed should disagree somewhere over this horizon.
	c := s.Compile(g, rngutil.New(43))
	d := s.Compile(g, rngutil.New(42))
	differs := false
	for t64 := int64(0); t64 < 500 && !differs; t64++ {
		for u := 0; u < 9; u++ {
			if c.LinkScale(t64, u, u+1) != d.LinkScale(t64, u, u+1) {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical chain trajectories")
	}
}

// TestChainQueryPatternIndependence is the core safety property behind
// the engine's empty-offset skip: the chain state at slot t must not depend on which earlier
// slots were queried.
func TestChainQueryPatternIndependence(t *testing.T) {
	g := line(3, 0.6)
	s := &Schedule{Links: []LinkRule{{PGB: 0.1, PBG: 0.3, BadScale: 0.2}}}
	dense := s.Compile(g, rngutil.New(9))
	sparse := s.Compile(g, rngutil.New(9))
	var denseAt [1000]float64
	for t64 := int64(0); t64 < 1000; t64++ {
		denseAt[t64] = dense.LinkScale(t64, 0, 1)
	}
	for t64 := int64(17); t64 < 1000; t64 += 97 { // skip most slots
		if got := sparse.LinkScale(t64, 0, 1); got != denseAt[t64] {
			t.Fatalf("slot %d: sparse query %v != dense %v", t64, got, denseAt[t64])
		}
	}
}

func TestCompileEventTimeline(t *testing.T) {
	g := line(5, 0.8)
	s := &Schedule{Crashes: []Crash{
		{Node: 3, At: 100, RebootAt: 200},
		{Node: 1, At: 50, RebootAt: -1},
		{Node: 2, At: 100, RebootAt: 150},
	}}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	inj := s.Compile(g, rngutil.New(0))
	ev := inj.Events()
	want := []Event{
		{At: 50, Node: 1, Up: false},
		{At: 100, Node: 2, Up: false},
		{At: 100, Node: 3, Up: false},
		{At: 150, Node: 2, Up: true},
		{At: 200, Node: 3, Up: true},
	}
	if len(ev) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(ev), len(want), ev)
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev[i], want[i])
		}
	}
}

func TestJammedDiscAndList(t *testing.T) {
	g := topology.New(4)
	g.AddLink(0, 1, 0.8)
	g.AddLink(1, 2, 0.8)
	g.AddLink(2, 3, 0.8)
	g.Pos = []topology.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 100, Y: 0}}
	s := &Schedule{Jams: []Jam{{From: 10, Until: 20, X: 15, Y: 0, Radius: 6, Nodes: []int{0}}}}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	inj := s.Compile(g, rngutil.New(0))
	// Disc covers nodes 1 (dist 5) and 2 (dist 5); list adds node 0.
	for node, want := range map[int]bool{0: true, 1: true, 2: true, 3: false} {
		if got := inj.Jammed(15, node); got != want {
			t.Errorf("Jammed(15, %d) = %v, want %v", node, got, want)
		}
	}
	// Outside the window nothing is jammed; Until is exclusive.
	if inj.Jammed(9, 1) || inj.Jammed(20, 1) {
		t.Error("jam active outside its [From, Until) window")
	}
	if !inj.Jammed(10, 1) || !inj.Jammed(19, 1) {
		t.Error("jam inactive inside its window")
	}
}

func TestParseJSON(t *testing.T) {
	spec := `{
	  "links":   [{"min_prr": 0.2, "max_prr": 0.8, "pgb": 0.02, "pbg": 0.1, "bad_scale": 0.3}],
	  "crashes": [{"node": 2, "at": 400, "reboot_at": 900}],
	  "jams":    [{"from": 200, "until": 260, "nodes": [1, 3]}]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Links) != 1 || len(s.Crashes) != 1 || len(s.Jams) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Links[0].BadScale != 0.3 || s.Crashes[0].RebootAt != 900 || s.Jams[0].Until != 260 {
		t.Fatalf("field mismatch: %+v", s)
	}
}

func TestParseCrashRebootAtDefaultsToPermanent(t *testing.T) {
	s, err := Parse([]byte(`{"crashes": [{"node": 3, "at": 10}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Crashes[0].RebootAt; got != -1 {
		t.Errorf("omitted reboot_at decoded to %d, want -1 (permanent)", got)
	}
	// An explicit value is preserved, including an explicit -1.
	s, err = Parse([]byte(`{"crashes": [{"node": 3, "at": 10, "reboot_at": -1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Crashes[0].RebootAt; got != -1 {
		t.Errorf("explicit reboot_at -1 decoded to %d", got)
	}
}

func TestParseRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := Parse([]byte(`{"crashs": []}`)); err == nil {
		t.Error("typoed key accepted")
	}
	if _, err := Parse([]byte(`{"crashes": [{"node": 3, "at": 10, "rebootat": 5}]}`)); err == nil {
		t.Error("typoed key inside a crash entry accepted")
	}
	if _, err := Parse([]byte(`{} {"links": []}`)); err == nil {
		t.Error("trailing document accepted")
	}
	if _, err := Parse([]byte(`[1, 2]`)); err == nil {
		t.Error("non-object accepted")
	}
}

// TestSyncMatchesLazyQueries pins the sharded-engine contract: advancing
// every chain with Sync(t) and then reading LinkScale(t) yields exactly the
// scales a lazy query-as-you-go injector reports, and the post-Sync reads
// leave chain state untouched (repeat reads agree).
func TestSyncMatchesLazyQueries(t *testing.T) {
	g := line(10, 0.6)
	s := &Schedule{Links: []LinkRule{{PGB: 0.08, PBG: 0.25, BadScale: 0.3, StartBad: 0.4}}}
	lazy := s.Compile(g, rngutil.New(11))
	synced := s.Compile(g, rngutil.New(11))
	for t64 := int64(0); t64 < 800; t64 += 13 {
		synced.Sync(t64)
		for u := 0; u < 9; u++ {
			want := lazy.LinkScale(t64, u, u+1)
			if got := synced.LinkScale(t64, u, u+1); got != want {
				t.Fatalf("slot %d link %d-%d: synced %v, lazy %v", t64, u, u+1, got, want)
			}
			if got := synced.LinkScale(t64, u, u+1); got != want {
				t.Fatalf("slot %d link %d-%d: repeat read changed state", t64, u, u+1)
			}
		}
	}
	if synced.ChainFlips() < lazy.ChainFlips() {
		t.Fatalf("Sync advanced fewer flips (%d) than lazy queries (%d)",
			synced.ChainFlips(), lazy.ChainFlips())
	}
}
