package main

import (
	"strings"
	"testing"
)

// scaleDoc builds a two-row scale document with the given medians.
func scaleDoc(opt, dbao int64) *scaleBaseline {
	return &scaleBaseline{Rows: []scaleRow{
		{Name: "opt/10000", MedianNS: opt, Slots: 1628},
		{Name: "dbao/10000", MedianNS: dbao, Slots: 1634},
	}}
}

func TestGuardScaleIdenticalBaselinePasses(t *testing.T) {
	if err := guardScale(scaleDoc(50e6, 80e6), scaleDoc(50e6, 80e6), 0.5); err != nil {
		t.Fatalf("identical baseline failed the guard: %v", err)
	}
}

func TestGuardScaleSlowRowFails(t *testing.T) {
	// 76ms against a 50ms baseline is a 52% regression, past the 50%
	// tolerance; 74ms (48%) is within it.
	if err := guardScale(scaleDoc(74e6, 80e6), scaleDoc(50e6, 80e6), 0.5); err != nil {
		t.Fatalf("row within tolerance failed the guard: %v", err)
	}
	err := guardScale(scaleDoc(76e6, 80e6), scaleDoc(50e6, 80e6), 0.5)
	if err == nil || !strings.Contains(err.Error(), "opt/10000") {
		t.Fatalf("slow row passed the guard or was misnamed: %v", err)
	}
}

func TestGuardScaleMissingRowIsError(t *testing.T) {
	cur := scaleDoc(50e6, 80e6)
	cur.Rows = cur.Rows[:1]
	err := guardScale(cur, scaleDoc(50e6, 80e6), 0.5)
	if err == nil || !strings.Contains(err.Error(), "dbao/10000") {
		t.Fatalf("baseline row missing from the new run was not an error: %v", err)
	}
}

func TestGuardScaleSlotDriftFails(t *testing.T) {
	cur := scaleDoc(50e6, 80e6)
	cur.Rows[1].Slots++
	if err := guardScale(cur, scaleDoc(50e6, 80e6), 0.5); err == nil {
		t.Fatal("slot horizon drift passed the guard")
	}
}

func TestGuardScaleSlowBuildFails(t *testing.T) {
	base := scaleDoc(50e6, 80e6)
	cur := scaleDoc(50e6, 80e6)
	for i := range base.Rows {
		base.Rows[i].BuildNS = 100e6
		cur.Rows[i].BuildNS = 140e6
	}
	if err := guardScale(cur, base, 0.5); err != nil {
		t.Fatalf("build within tolerance failed the guard: %v", err)
	}
	cur.Rows[1].BuildNS = 160e6
	err := guardScale(cur, base, 0.5)
	if err == nil || !strings.Contains(err.Error(), "dbao/10000: build") {
		t.Fatalf("slow build passed the guard or was misnamed: %v", err)
	}
	// A baseline recorded before builds were timed guards no build.
	if err := guardScale(cur, scaleDoc(50e6, 80e6), 0.5); err != nil {
		t.Fatalf("baseline without build times failed the guard: %v", err)
	}
}
