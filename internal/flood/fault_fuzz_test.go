package flood

// Property fuzzing for fault injection: an arbitrary (valid) fault
// schedule, derived deterministically from the fuzz input, must never
// break the engine's invariants for any shipped protocol — runs are
// reproducible, both execution paths agree, and every metric stays
// consistent. Run the corpus with the normal test suite, or explore with
//
//	go test -fuzz FuzzFaultSchedule -fuzztime 30s ./internal/flood
//
// (the CI workflow runs a short smoke of exactly that).

import (
	"reflect"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// randomSchedule derives a valid fault schedule from spec: up to two link
// rules, two crashes, and one jam, all parameters drawn from a private
// stream so the same spec always yields the same schedule.
func randomSchedule(spec uint64, g *topology.Graph) *fault.Schedule {
	r := rngutil.New(spec)
	n := g.N()
	s := &fault.Schedule{}
	for i, k := 0, r.Intn(3); i < k; i++ {
		lo := r.Float64()
		s.Links = append(s.Links, fault.LinkRule{
			MinPRR:   lo,
			MaxPRR:   lo + (1-lo)*r.Float64(),
			PGB:      0.3 * r.Float64(),
			PBG:      0.3 * r.Float64(),
			BadScale: r.Float64(),
			StartBad: r.Float64(),
		})
	}
	crashBase := r.Intn(n - 1)
	for i, k := 0, r.Intn(3); i < k; i++ {
		at := int64(r.Intn(200))
		reboot := at + 1 + int64(r.Intn(400))
		if r.Bool(0.25) {
			reboot = -1 // permanent failure
		}
		s.Crashes = append(s.Crashes, fault.Crash{
			// Distinct nodes per crash avoid overlapping-interval rejection.
			Node:     1 + (crashBase+i)%(n-1),
			At:       at,
			RebootAt: reboot,
		})
	}
	if r.Bool(0.5) {
		from := int64(r.Intn(150))
		s.Jams = append(s.Jams, fault.Jam{
			From:  from,
			Until: from + 1 + int64(r.Intn(200)),
			Nodes: []int{r.Intn(n), r.Intn(n)},
		})
	}
	return s
}

// checkInvariants asserts the per-result engine invariants that must hold
// under any fault schedule.
func checkInvariants(t *testing.T, res *sim.Result, m int) {
	t.Helper()
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Transmissions", res.Transmissions},
		{"LossFailures", res.LossFailures},
		{"CollisionFailures", res.CollisionFailures},
		{"BusyFailures", res.BusyFailures},
		{"SyncFailures", res.SyncFailures},
		{"JamFailures", res.JamFailures},
		{"Overheard", res.Overheard},
		{"Crashes", res.Crashes},
		{"Reboots", res.Reboots},
		{"CrashDropped", res.CrashDropped},
	} {
		if c.v < 0 {
			t.Errorf("%s = %d, negative", c.name, c.v)
		}
	}
	if res.Reboots > res.Crashes {
		t.Errorf("Reboots %d > Crashes %d", res.Reboots, res.Crashes)
	}
	for p := 0; p < m; p++ {
		if res.CoverTime[p] >= 0 {
			if res.InjectTime[p] < 0 {
				t.Errorf("packet %d covered but never injected", p)
			}
			if res.Delay[p] != res.CoverTime[p]-res.InjectTime[p] || res.Delay[p] < 0 {
				t.Errorf("packet %d: Delay %d inconsistent with cover %d / inject %d",
					p, res.Delay[p], res.CoverTime[p], res.InjectTime[p])
			}
		}
		for node, rt := range res.NodeRecvTime[p] {
			if rt >= 0 && rt < res.InjectTime[p] {
				t.Errorf("packet %d received by %d at slot %d before injection at %d",
					p, node, rt, res.InjectTime[p])
			}
		}
	}
}

func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(0))
	f.Add(uint64(7), uint64(0xdeadbeef))
	f.Add(uint64(1234), uint64(999))
	g := topology.Grid(4, 4, 0.8)
	f.Fuzz(func(t *testing.T, seed, spec uint64) {
		fs := randomSchedule(spec, g)
		if err := fs.Validate(g); err != nil {
			t.Fatalf("randomSchedule produced an invalid schedule: %v", err)
		}
		for _, protocol := range Names() {
			run := func() *sim.Result {
				p, err := New(protocol)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Graph:            g,
					Schedules:        uniform(g.N(), 10, seed),
					Protocol:         p,
					M:                2,
					Coverage:         0.99,
					Seed:             seed,
					MaxSlots:         20000,
					RecordReceptions: true,
					Faults:           fs,
				})
				if err != nil {
					t.Fatalf("%s: %v", protocol, err)
				}
				return res
			}
			first := run()
			checkInvariants(t, first, 2)
			if again := run(); !reflect.DeepEqual(first, again) {
				t.Errorf("%s: identical seed + schedule re-run diverged", protocol)
			}
		}
	})
}
