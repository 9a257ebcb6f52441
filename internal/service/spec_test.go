package service_test

import (
	"encoding/json"
	"testing"

	"ldcflood/internal/service"
)

// TestJournalKeyGolden pins the journal key of a compiled spec as a
// literal. A journal resumes only under exactly this key, so any change to
// its format orphans every journal written before it. The duties are typed
// with trailing zeros, which the key writes in shortest form, and the
// inline fault schedule enters as the FNV-1a hash of its compact JSON.
func TestJournalKeyGolden(t *testing.T) {
	var spec service.Spec
	doc := `{"protocols": ["opt", "of"], "duties": [0.10, 0.20], "seeds": 2, "m": 5,
		"coverage": 0.99, "toposeed": 1, "syncerr": 0.05,
		"faults": {"crashes": [{"node": 99, "at": 200, "reboot_at": 600}]}}`
	if err := json.Unmarshal([]byte(doc), &spec); err != nil {
		t.Fatal(err)
	}
	grid, err := service.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sweep/v3|protocols=opt,of|duties=0.1,0.2|seeds=2|m=5|coverage=0.99|toposeed=1|syncerr=0.05|faults=dcbe1caa3763b4e8"
	if got := grid.JournalKey(); got != want {
		t.Fatalf("JournalKey = %q, want %q", got, want)
	}
}
