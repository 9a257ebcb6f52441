package flood

// Golden pin for the keyed-stream discipline: every protocol × fault
// family is reduced to a digest of
// its Result (JSON) plus its binary trace bytes, and the digests are
// compared with the table below. A sparse-duty row (period 200, where most
// schedule offsets are empty and the slot loop skips them) runs every
// protocol unfaulted and under crash-reboot; the permanent crash at slot
// 100 makes full coverage unreachable there, so those runs end with a jump
// to the horizon. Rows at M = 80 (two 64-bit packet words per node) pin
// DFlood and OF on multi-word possession masks, unfaulted and under
// crash-reboot, where a crash clears both words. The table pins the
// keyed engine's output, so a refactor of its phase structure, slot loop
// or scratch layout must leave every result and trace byte unchanged. If
// a change intentionally alters keyed-path behaviour, the failure message
// prints the full replacement table; update it and say so in the commit.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ldcflood/internal/fault"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

// keyedGolden maps protocol/fault (period 20, M = 3),
// protocol/fault/period-200 and protocol/fault/m-80 to the first 16 hex digits of
// sha256(json(Result) || tracebin bytes).
var keyedGolden = map[string]string{
	"dbao/crash-reboot":               "0e2f720afc0f86d0",
	"dbao/crash-reboot/period-200":    "c845c523e80dfe08",
	"dbao/gilbert-elliott":            "4d757b603c4b64f3",
	"dbao/jam-disc":                   "8b71f3c6c96850f3",
	"dbao/mixed":                      "98701235b085b638",
	"dbao/none":                       "144ecce1c696fabb",
	"dbao/none/period-200":            "144dbaf42708cdd0",
	"dbao/static-class":               "144ecce1c696fabb",
	"dbao/static-random-subset":       "6949ee1666a451c7",
	"dflood/crash-reboot":             "933b3272662438ac",
	"dflood/crash-reboot/m-80":        "f2c93d15769bc17a",
	"dflood/crash-reboot/period-200":  "7ee33255b6e9fde9",
	"dflood/gilbert-elliott":          "8d573ef1b85ab875",
	"dflood/jam-disc":                 "b6c6a0ddaef36ff9",
	"dflood/mixed":                    "008c4d5805220dcd",
	"dflood/none":                     "b6c6a0ddaef36ff9",
	"dflood/none/m-80":                "9a69f91390e78073",
	"dflood/none/period-200":          "992954afff61ba65",
	"dflood/static-class":             "b6c6a0ddaef36ff9",
	"dflood/static-random-subset":     "ccd41dcbcba5636d",
	"naive/crash-reboot":              "87160ef8e827f921",
	"naive/crash-reboot/period-200":   "7a5878c526e53b5d",
	"naive/gilbert-elliott":           "103329b49fa808d2",
	"naive/jam-disc":                  "edbe58491e05c2c8",
	"naive/mixed":                     "1f0aba0fbb5e2104",
	"naive/none":                      "a5c98ccdaf0be04b",
	"naive/none/period-200":           "59085a689d8d2416",
	"naive/static-class":              "a5c98ccdaf0be04b",
	"naive/static-random-subset":      "77436789d890407f",
	"of/crash-reboot":                 "78384f5b288b4b3d",
	"of/crash-reboot/m-80":            "d05fa7366a60c5e3",
	"of/crash-reboot/period-200":      "83d93851b7e6ecaa",
	"of/gilbert-elliott":              "3016ec164fec1dbf",
	"of/jam-disc":                     "856fe2d619f8a60a",
	"of/mixed":                        "59a3a17e81c22271",
	"of/none":                         "9a2823229b52cc75",
	"of/none/m-80":                    "9a3ffbc38b5a897e",
	"of/none/period-200":              "e1de97b7984cda8d",
	"of/static-class":                 "9a2823229b52cc75",
	"of/static-random-subset":         "90bd75d66fbf1dff",
	"opt/crash-reboot":                "caa19d191c434fbe",
	"opt/crash-reboot/period-200":     "cb68ad710db6b289",
	"opt/gilbert-elliott":             "faf1e90c7061122f",
	"opt/jam-disc":                    "a9d8ccceab4bfc98",
	"opt/mixed":                       "3edc34bcddf323ec",
	"opt/none":                        "c6adc1cb68c43e48",
	"opt/none/period-200":             "2d950008e18710e8",
	"opt/static-class":                "c6adc1cb68c43e48",
	"opt/static-random-subset":        "09621419d64c0577",
	"trickle/crash-reboot":            "10d9bae106ecf193",
	"trickle/crash-reboot/period-200": "fdc58dd347f25e85",
	"trickle/gilbert-elliott":         "3cb4021ec81b73b7",
	"trickle/jam-disc":                "58ae05f368bf825b",
	"trickle/mixed":                   "ad77464424795ce1",
	"trickle/none":                    "58ae05f368bf825b",
	"trickle/none/period-200":         "5d951ee441206637",
	"trickle/static-class":            "58ae05f368bf825b",
	"trickle/static-random-subset":    "3b03300e1fd39f58",
}

func TestKeyedDisciplineGolden(t *testing.T) {
	schedules := faultSchedules()
	schedules["none"] = nil
	g := topology.Grid(6, 6, 0.8)
	got := map[string]string{}
	digest := func(cfg sim.Config, protocol, key string) {
		p, err := New(protocol)
		if err != nil {
			t.Fatal(err)
		}
		_, got[key] = runDigest(t, cfg, p)
	}
	for name, fs := range schedules {
		cfg := shardCfg(g, fs, 1234)
		for _, protocol := range Names() {
			digest(cfg, protocol, protocol+"/"+name)
		}
	}
	// At M = 80 a flood takes about 3000 slots, so the crash-reboot row
	// crashes late enough that each crashing node holds packets in both
	// words (node 7 drops 77, node 20 drops 74 or more).
	wideSchedules := map[string]*fault.Schedule{
		"none": nil,
		"crash-reboot": {Crashes: []fault.Crash{
			{Node: 7, At: 2000, RebootAt: 2600},
			{Node: 20, At: 2400, RebootAt: -1},
		}},
	}
	for _, name := range []string{"none", "crash-reboot"} {
		cfg := shardCfg(g, schedules[name], 1234)
		cfg.Schedules = uniform(g.N(), 200, 42)
		for _, protocol := range Names() {
			digest(cfg, protocol, protocol+"/"+name+"/period-200")
		}
		cfg = shardCfg(g, wideSchedules[name], 1234)
		cfg.M = 80
		for _, protocol := range []string{"dflood", "of"} {
			digest(cfg, protocol, protocol+"/"+name+"/m-80")
		}
	}
	checkGolden(t, keyedGolden, got)
}

// runDigest runs cfg with protocol p, recording a binary trace, and
// returns the result with the first 16 hex digits of
// sha256(json(Result) || tracebin bytes).
func runDigest(t *testing.T, cfg sim.Config, p sim.Protocol) (*sim.Result, string) {
	t.Helper()
	var bin bytes.Buffer
	obs := tracebin.NewWriter(&bin)
	cfg.Protocol = p
	cfg.Observer = obs
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	h.Write(bin.Bytes())
	return res, hex.EncodeToString(h.Sum(nil))[:16]
}
