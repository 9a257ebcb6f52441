package service

import (
	"strings"
	"testing"
)

// TestLegacyJournalKey pins NormalizeJournalKey on every key format a
// release has written: v3, v2 with either compact= value, v1 with either
// sharded= value, and each with the duty axis spelled as typed.
func TestLegacyJournalKey(t *testing.T) {
	const (
		grid = "protocols=opt,of|duties=%s|seeds=2|m=5|coverage=0.99|toposeed=1|syncerr=0"
		want = "sweep/v3|protocols=opt,of|duties=0.1,0.2|seeds=2|m=5|coverage=0.99|toposeed=1|syncerr=0|faults=0"
	)
	key := func(prefix, duties, tail string) string {
		return prefix + strings.Replace(grid, "%s", duties, 1) + tail + "|faults=0"
	}
	cases := []struct {
		name            string
		stored          string
		norm            string
		serial, retyped bool
	}{
		{"current key", want, want, false, false},
		{"v3 typed duties", key("sweep/v3|", "0.10,0.20", ""), want, false, true},
		{"v3 whitespace and zeros", key("sweep/v3|", "0.10, 0.20", ""), want, false, true},
		{"v2 compact=false", key("sweep/v2|", "0.1,0.2", "|compact=false"), want, false, false},
		{"v2 compact=true", key("sweep/v2|", "0.1,0.2", "|compact=true"), want, false, false},
		{"v2 typed duties", key("sweep/v2|", "0.10,0.2", "|compact=true"), want, false, true},
		{"v1 sharded=true", key("sweep|", "0.1,0.2", "|compact=true|sharded=true"), want, false, false},
		{"v1 sharded=false", key("sweep|", "0.1,0.2", "|compact=false|sharded=false"), want, true, false},
		{"v1 serial typed duties", key("sweep|", "0.10,0.20", "|compact=false|sharded=false"), want, true, true},
		{"different grid", strings.Replace(key("sweep/v2|", "0.1,0.2", "|compact=false"), "seeds=2", "seeds=3", 1),
			strings.Replace(want, "seeds=2", "seeds=3", 1), false, false},
		{"unparseable duty", key("sweep/v3|", "0.10,zero", ""),
			strings.Replace(want, "0.1,0.2", "0.10,zero", 1), false, false},
		{"unknown format", "batch|duties=0.10", "batch|duties=0.10", false, false},
	}
	for _, tc := range cases {
		norm, serial, retyped := NormalizeJournalKey(tc.stored)
		if norm != tc.norm || serial != tc.serial || retyped != tc.retyped {
			t.Errorf("%s: NormalizeJournalKey(%q) = (%q, %v, %v), want (%q, %v, %v)",
				tc.name, tc.stored, norm, serial, retyped, tc.norm, tc.serial, tc.retyped)
		}
	}
}

// TestLegacyJournalKeyMatchesCompiledKey ties the normalization to the
// real key format: a compiled grid's key with its duty segment rewritten
// to the pre-canonicalization spelling normalizes back to the compiled
// key, flagged as retyped.
func TestLegacyJournalKeyMatchesCompiledKey(t *testing.T) {
	grid, err := Compile(Spec{
		Protocols: []string{"opt"},
		Duties:    []float64{0.1, 0.2},
		Seeds:     1,
		M:         5,
		Coverage:  0.99,
		TopoSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := grid.JournalKey()
	const canon = "|duties=0.1,0.2|"
	if !strings.Contains(want, canon) {
		t.Fatalf("compiled key %q lacks canonical duty segment %q", want, canon)
	}
	legacy := strings.Replace(want, canon, "|duties=0.10,0.20|", 1)
	if norm, serial, retyped := NormalizeJournalKey(legacy); norm != want || serial || !retyped {
		t.Fatalf("legacy spelling of compiled key not recognized:\nstored %q\nnorm   %q (serial %v, retyped %v)\nwant   %q",
			legacy, norm, serial, retyped, want)
	}
	if norm, serial, retyped := NormalizeJournalKey(want); norm != want || serial || retyped {
		t.Fatalf("current key not a fixed point: %q (serial %v, retyped %v)", norm, serial, retyped)
	}
}
