package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpec feeds arbitrary JSON to the spec surface. Compile must never
// panic, and a compiled spec must survive the trip a restarted daemon
// takes — marshal (indented, as spec.json is written), unmarshal,
// compile — with its cells and journal key unchanged;
// a second trip must reproduce the first byte for byte.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":2,"coverage":0.99,"toposeed":1}`,
		`{"protocols":["opt","dbao"],"duties":[0.05,0.1],"seeds":2,"m":3,"coverage":0.99,"toposeed":1,"workers":-1}`,
		`{"protocols":["of"],"duties":[0.2],"seeds":3,"m":2,"coverage":0.9,"toposeed":2,"workers":-1,"parallel":3}`,
		`{"protocols":["naive"],"duties":[0.5],"seeds":1,"m":1,"coverage":1,"toposeed":1,"workers":0,"parallel":0}`,
		`{"protocols":[" trickle "],"duties":[0.1],"seeds":1,"m":2,"coverage":0.99,"toposeed":1,"workers":1,"parallel":3}`,
		`{"protocols":["dflood"],"duties":[1],"seeds":1,"m":2,"coverage":0.99,"toposeed":1,"workers":8,"timeout":"1m","retries":2,"backoff":"10ms"}`,
		`{"protocols":["opt"],"duties":[0.1],"seeds":1,"m":2,"coverage":0.99,"toposeed":1,"workers":-1,"parallel":3,"faults":{"crashes":[{"node":5,"at":10,"reboot_at":50}]}}`,
		`{"protocols":["naive"],"duties":[0.1],"seeds":1,"m":2,"coverage":0.99,"toposeed":1,"faults":{ "links": [ {"pgb": 0.01, "pbg": 0.1, "bad_scale": 0.5} ] }}`,
		`{"protocols":["opt"],"duties":[0],"seeds":1,"m":2}`,
		`{"workers":-2}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		// Compile builds one engine config per cell; keep the grid small
		// so the fuzzer explores validation rather than allocation.
		if cells := len(spec.Protocols) * len(spec.Duties) * spec.Seeds; len(spec.Protocols) > 8 || len(spec.Duties) > 8 || spec.Seeds > 8 || cells > 64 {
			return
		}
		g1, err := Compile(spec)
		if err != nil {
			return
		}
		trip := func(g *Grid) ([]byte, *Grid) {
			t.Helper()
			js, err := json.MarshalIndent(g.Spec, "", "  ")
			if err != nil {
				t.Fatalf("marshal compiled spec: %v", err)
			}
			var back Spec
			if err := json.Unmarshal(js, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", js, err)
			}
			g2, err := Compile(back)
			if err != nil {
				t.Fatalf("compiled spec %s no longer compiles: %v", js, err)
			}
			return js, g2
		}
		js1, g2 := trip(g1)
		js2, _ := trip(g2)
		if !bytes.Equal(js1, js2) {
			t.Fatalf("spec JSON is not a fixed point:\n%s\nvs\n%s", js1, js2)
		}
		if !reflect.DeepEqual(g1.Cells, g2.Cells) {
			t.Fatalf("round trip changed the cells: %v vs %v", g1.Cells, g2.Cells)
		}
		if k1, k2 := g1.JournalKey(), g2.JournalKey(); k1 != k2 {
			t.Fatalf("round trip changed the journal key:\n%s\nvs\n%s", k1, k2)
		}
	})
}

// TestJournalKeyWorkersAuto pins that the ignored Workers field, which
// stored specs may carry at any value the old validation accepted (-1 for
// the retired auto split), compiles to the same jobs and journal key as a
// spec without it, so a journal written at any value resumes at another.
func TestJournalKeyWorkersAuto(t *testing.T) {
	spec := Spec{Protocols: []string{"opt"}, Duties: []float64{0.1}, Seeds: 2, M: 2, Coverage: 0.99, TopoSeed: 1, Parallel: 3}
	ref, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 1, 8} {
		spec.Workers = workers
		g, err := Compile(spec)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if g.JournalKey() != ref.JournalKey() {
			t.Fatalf("workers %d key %q differs from the key without workers %q", workers, g.JournalKey(), ref.JournalKey())
		}
		if g.Options().Workers != ref.Options().Workers {
			t.Fatalf("workers %d changed the runner's worker count: %d vs %d", workers, g.Options().Workers, ref.Options().Workers)
		}
		for i := range g.Jobs {
			if g.Jobs[i].Workers != 0 {
				t.Fatalf("workers %d reached job %d's engine config", workers, i)
			}
		}
	}
}
