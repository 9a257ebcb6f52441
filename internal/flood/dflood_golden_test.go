package flood

// Golden pin for DFlood on the paper-scale field: the 298-node scaled
// GreenOrbs topology (seed 1) at 5% and 1% duty, M = 8 and 80 (one and
// two packet words), unfaulted, under crash-reboot churn and with one
// permanent crash. Each run is reduced to sha256(json(Result) || tracebin bytes), as
// TestKeyedDisciplineGolden does for the 36-node grid. The digests were
// recorded from the full-scan planner that rescanned every awake
// receiver's holder neighbours every slot, so they certify that the fire
// calendar changed no result and no trace byte.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// dfloodFieldGolden maps duty/M/fault to the first 16 hex digits of the
// run's digest.
var dfloodFieldGolden = map[string]string{
	"1pct/m-8/crash-reboot":     "6fca49724d64a000",
	"1pct/m-8/none":             "e95c0ebaf1db58dc",
	"1pct/m-8/permanent-crash":  "229a905622da1666",
	"1pct/m-80/crash-reboot":    "2e410b4b63a02706",
	"1pct/m-80/none":            "d6f7d33d13ac2e65",
	"1pct/m-80/permanent-crash": "205f8db05c9ad36c",
	"5pct/m-8/crash-reboot":     "4d203f094c8d5d1b",
	"5pct/m-8/none":             "fd3906e7ea9122c9",
	"5pct/m-8/permanent-crash":  "21e909ea51c88c6f",
	"5pct/m-80/crash-reboot":    "08e5d04e704f388d",
	"5pct/m-80/none":            "58f24b9d7b903626",
	"5pct/m-80/permanent-crash": "d27da686093b77d1",
}

// dfloodFieldFaults are the golden's fault families. Every cell's flood
// runs past slot 3500, so each crash lands mid-flood and drops packets.
func dfloodFieldFaults(period int) map[string]*fault.Schedule {
	const at = 2000
	return map[string]*fault.Schedule{
		"none": nil,
		"crash-reboot": {Crashes: []fault.Crash{
			{Node: 17, At: at, RebootAt: at + int64(5*period)},
			{Node: 90, At: at + int64(period), RebootAt: at + int64(12*period)},
			{Node: 201, At: at + 1000, RebootAt: at + 1000 + int64(3*period)},
		}},
		"permanent-crash": {Crashes: []fault.Crash{
			{Node: 45, At: at, RebootAt: -1},
		}},
	}
}

func TestDFloodFieldGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale DFlood golden")
	}
	g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(topology.GreenOrbsNodes), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, duty := range []struct {
		name   string
		period int
	}{{"5pct", 20}, {"1pct", 100}} {
		scheds := schedule.AssignUniform(g.N(), duty.period, rngutil.New(1).SubName("schedule"))
		for _, m := range []int{8, 80} {
			for name, fs := range dfloodFieldFaults(duty.period) {
				key := fmt.Sprintf("%s/m-%d/%s", duty.name, m, name)
				cfg := sim.Config{
					Graph: g, Schedules: scheds, M: m,
					Coverage: 0.99, Seed: 1, Faults: fs,
				}
				res, digest := runDigest(t, cfg, NewDFlood())
				if fs != nil && res.CrashDropped == 0 {
					t.Errorf("%s: no crash dropped a packet", key)
				}
				got[key] = digest
			}
		}
	}
	checkGolden(t, dfloodFieldGolden, got)
}

// checkGolden compares a grid's digests with its golden table; on any
// mismatch it logs the full replacement table.
func checkGolden(t *testing.T, golden, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if want, ok := golden[k]; !ok || want != got[k] {
			bad++
			t.Errorf("%s: digest %s, golden %q", k, got[k], golden[k])
		}
	}
	if len(golden) != len(got) {
		t.Errorf("golden has %d entries, grid has %d", len(golden), len(got))
	}
	if bad > 0 || len(golden) != len(got) {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("replacement table:\n%s", b.String())
	}
}
