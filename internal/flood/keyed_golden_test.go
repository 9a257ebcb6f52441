package flood

// Golden pin for the keyed-stream discipline (sim.Config.Workers >= 1):
// every protocol × fault family × time path at Workers: 1 is reduced to a
// digest of its Result (JSON) plus its binary trace bytes, and the digests
// are compared with the table below. The table pins the keyed engine's
// output, so a refactor of its worker pool, phase structure or scratch
// layout must leave every result and trace byte unchanged. If a change
// intentionally alters keyed-path behaviour, the failure message prints
// the full replacement table; update it and say so in the commit.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
)

// keyedGolden maps protocol/fault/time-path to the first 16 hex digits of
// sha256(json(Result) || tracebin bytes).
var keyedGolden = map[string]string{
	"dbao/crash-reboot/compact":              "8f801f6296bc3f41",
	"dbao/crash-reboot/reference":            "8f801f6296bc3f41",
	"dbao/gilbert-elliott/compact":           "9574a248deaf44f0",
	"dbao/gilbert-elliott/reference":         "9574a248deaf44f0",
	"dbao/jam-disc/compact":                  "f3d1faa1a76763fe",
	"dbao/jam-disc/reference":                "f3d1faa1a76763fe",
	"dbao/mixed/compact":                     "7e394245237869b5",
	"dbao/mixed/reference":                   "7e394245237869b5",
	"dbao/none/compact":                      "184768449f0e3321",
	"dbao/none/reference":                    "184768449f0e3321",
	"dbao/static-class/compact":              "184768449f0e3321",
	"dbao/static-class/reference":            "184768449f0e3321",
	"dbao/static-random-subset/compact":      "0f7cb646f81297d2",
	"dbao/static-random-subset/reference":    "0f7cb646f81297d2",
	"dflood/crash-reboot/compact":            "933b3272662438ac",
	"dflood/crash-reboot/reference":          "933b3272662438ac",
	"dflood/gilbert-elliott/compact":         "8d573ef1b85ab875",
	"dflood/gilbert-elliott/reference":       "8d573ef1b85ab875",
	"dflood/jam-disc/compact":                "b6c6a0ddaef36ff9",
	"dflood/jam-disc/reference":              "b6c6a0ddaef36ff9",
	"dflood/mixed/compact":                   "008c4d5805220dcd",
	"dflood/mixed/reference":                 "008c4d5805220dcd",
	"dflood/none/compact":                    "b6c6a0ddaef36ff9",
	"dflood/none/reference":                  "b6c6a0ddaef36ff9",
	"dflood/static-class/compact":            "b6c6a0ddaef36ff9",
	"dflood/static-class/reference":          "b6c6a0ddaef36ff9",
	"dflood/static-random-subset/compact":    "ccd41dcbcba5636d",
	"dflood/static-random-subset/reference":  "ccd41dcbcba5636d",
	"flash/crash-reboot/compact":             "3efd0eebdf405de6",
	"flash/crash-reboot/reference":           "3efd0eebdf405de6",
	"flash/gilbert-elliott/compact":          "65ac98265c9e8c23",
	"flash/gilbert-elliott/reference":        "65ac98265c9e8c23",
	"flash/jam-disc/compact":                 "78c727a63dd30e97",
	"flash/jam-disc/reference":               "78c727a63dd30e97",
	"flash/mixed/compact":                    "3c6921d2d5547d7c",
	"flash/mixed/reference":                  "3c6921d2d5547d7c",
	"flash/none/compact":                     "196d6141a9b69521",
	"flash/none/reference":                   "196d6141a9b69521",
	"flash/static-class/compact":             "196d6141a9b69521",
	"flash/static-class/reference":           "196d6141a9b69521",
	"flash/static-random-subset/compact":     "f2d035954d5f4d63",
	"flash/static-random-subset/reference":   "f2d035954d5f4d63",
	"naive/crash-reboot/compact":             "9e6de28e6912d717",
	"naive/crash-reboot/reference":           "9e6de28e6912d717",
	"naive/gilbert-elliott/compact":          "48f0f6bc62011cd3",
	"naive/gilbert-elliott/reference":        "48f0f6bc62011cd3",
	"naive/jam-disc/compact":                 "59a549ca9d8cc8f3",
	"naive/jam-disc/reference":               "59a549ca9d8cc8f3",
	"naive/mixed/compact":                    "b0572c8e1c721c4b",
	"naive/mixed/reference":                  "b0572c8e1c721c4b",
	"naive/none/compact":                     "850da4a82a788ce2",
	"naive/none/reference":                   "850da4a82a788ce2",
	"naive/static-class/compact":             "850da4a82a788ce2",
	"naive/static-class/reference":           "850da4a82a788ce2",
	"naive/static-random-subset/compact":     "63eaa96ec2463593",
	"naive/static-random-subset/reference":   "63eaa96ec2463593",
	"of/crash-reboot/compact":                "98d6be242ce46e11",
	"of/crash-reboot/reference":              "98d6be242ce46e11",
	"of/gilbert-elliott/compact":             "5a014690264b635b",
	"of/gilbert-elliott/reference":           "5a014690264b635b",
	"of/jam-disc/compact":                    "704d4006994b3126",
	"of/jam-disc/reference":                  "704d4006994b3126",
	"of/mixed/compact":                       "abc7b8fad88f08b0",
	"of/mixed/reference":                     "abc7b8fad88f08b0",
	"of/none/compact":                        "405a9e87172f656a",
	"of/none/reference":                      "405a9e87172f656a",
	"of/static-class/compact":                "405a9e87172f656a",
	"of/static-class/reference":              "405a9e87172f656a",
	"of/static-random-subset/compact":        "bc5976fe51b13769",
	"of/static-random-subset/reference":      "bc5976fe51b13769",
	"opt/crash-reboot/compact":               "caa19d191c434fbe",
	"opt/crash-reboot/reference":             "caa19d191c434fbe",
	"opt/gilbert-elliott/compact":            "faf1e90c7061122f",
	"opt/gilbert-elliott/reference":          "faf1e90c7061122f",
	"opt/jam-disc/compact":                   "a9d8ccceab4bfc98",
	"opt/jam-disc/reference":                 "a9d8ccceab4bfc98",
	"opt/mixed/compact":                      "3edc34bcddf323ec",
	"opt/mixed/reference":                    "3edc34bcddf323ec",
	"opt/none/compact":                       "c6adc1cb68c43e48",
	"opt/none/reference":                     "c6adc1cb68c43e48",
	"opt/static-class/compact":               "c6adc1cb68c43e48",
	"opt/static-class/reference":             "c6adc1cb68c43e48",
	"opt/static-random-subset/compact":       "09621419d64c0577",
	"opt/static-random-subset/reference":     "09621419d64c0577",
	"trickle/crash-reboot/compact":           "10d9bae106ecf193",
	"trickle/crash-reboot/reference":         "10d9bae106ecf193",
	"trickle/gilbert-elliott/compact":        "3cb4021ec81b73b7",
	"trickle/gilbert-elliott/reference":      "3cb4021ec81b73b7",
	"trickle/jam-disc/compact":               "58ae05f368bf825b",
	"trickle/jam-disc/reference":             "58ae05f368bf825b",
	"trickle/mixed/compact":                  "ad77464424795ce1",
	"trickle/mixed/reference":                "ad77464424795ce1",
	"trickle/none/compact":                   "58ae05f368bf825b",
	"trickle/none/reference":                 "58ae05f368bf825b",
	"trickle/static-class/compact":           "58ae05f368bf825b",
	"trickle/static-class/reference":         "58ae05f368bf825b",
	"trickle/static-random-subset/compact":   "3b03300e1fd39f58",
	"trickle/static-random-subset/reference": "3b03300e1fd39f58",
}

func TestKeyedDisciplineGolden(t *testing.T) {
	schedules := faultSchedules()
	schedules["none"] = nil
	g := topology.Grid(6, 6, 0.8)
	got := map[string]string{}
	for name, fs := range schedules {
		cfg := shardCfg(g, fs, 1234)
		for _, protocol := range allProtocols() {
			for _, compact := range []bool{false, true} {
				p, err := New(protocol)
				if err != nil {
					t.Fatal(err)
				}
				var bin bytes.Buffer
				obs := tracebin.NewWriter(&bin)
				c := cfg
				c.Protocol = p
				c.Observer = obs
				c.Workers = 1
				c.CompactTime = compact
				res, err := sim.Run(c)
				if err != nil {
					t.Fatalf("%s/%s compact=%v: %v", protocol, name, compact, err)
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
				path := "reference"
				if compact {
					path = "compact"
				}
				got[protocol+"/"+name+"/"+path] = hex.EncodeToString(h.Sum(nil))[:16]
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if want, ok := keyedGolden[k]; !ok || want != got[k] {
			bad++
			t.Errorf("%s: digest %s, golden %q", k, got[k], keyedGolden[k])
		}
	}
	if len(keyedGolden) != len(got) {
		t.Errorf("golden has %d entries, grid has %d", len(keyedGolden), len(got))
	}
	if bad > 0 || len(keyedGolden) != len(got) {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("replacement table:\n%s", b.String())
	}
}
