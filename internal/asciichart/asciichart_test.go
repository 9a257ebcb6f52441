package asciichart

import (
	"math"
	"strings"
	"testing"
)

func TestAddValidation(t *testing.T) {
	var c Chart
	if err := c.Add("bad", []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := c.Add("empty", nil, nil); err == nil {
		t.Fatal("empty series accepted")
	}
	if err := c.Add("nan", []float64{1}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := c.Add("inf", []float64{math.Inf(1)}, []float64{1}); err == nil {
		t.Fatal("Inf accepted")
	}
	if err := c.Add("ok", []float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd did not panic")
		}
	}()
	var c Chart
	c.MustAdd("bad", []float64{1}, nil)
}

func TestRenderContainsMarkersAndLegend(t *testing.T) {
	c := Chart{Title: "demo", XLabel: "t", YLabel: "v"}
	c.MustAdd("up", []float64{0, 1, 2}, []float64{0, 1, 2})
	c.MustAdd("down", []float64{0, 1, 2}, []float64{2, 1, 0})
	out := c.Render()
	for _, want := range []string{"demo", "up", "down", "*", "o", "x: t", "y: v"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	var c Chart
	if !strings.Contains(c.Render(), "no data") {
		t.Fatal("empty chart should say so")
	}
}

func TestRenderConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	var c Chart
	c.MustAdd("flat", []float64{1, 1, 1}, []float64{5, 5, 5})
	out := c.Render()
	if !strings.Contains(out, "*") {
		t.Fatalf("flat series not drawn:\n%s", out)
	}
}

func TestRenderDimensions(t *testing.T) {
	c := Chart{Width: 20, Height: 5}
	c.MustAdd("s", []float64{0, 10}, []float64{0, 10})
	lines := strings.Split(strings.TrimRight(c.Render(), "\n"), "\n")
	// 5 plot rows + axis + x labels + legend = 8.
	if len(lines) != 8 {
		t.Fatalf("got %d lines:\n%s", len(lines), c.Render())
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"333", "4"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "long-header") || !strings.Contains(lines[1], "---") {
		t.Fatalf("bad table:\n%s", out)
	}
	// Alignment: all lines equally long or shorter.
	if len(lines[2]) > len(lines[0])+2 {
		t.Fatalf("misaligned table:\n%s", out)
	}
}
