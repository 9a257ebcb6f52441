// Package asciichart renders dependency-free line charts and tables in
// plain text so cmd/figures can draw every figure of the paper in a terminal.
package asciichart

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named data series of (x, y) points.
type Series struct {
	Name   string
	X, Y   []float64
	Marker byte
}

// Chart is a collection of series rendered over a shared axis.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot area columns (default 64)
	Height int // plot area rows (default 16)
	series []Series
}

// defaultMarkers cycles through distinguishable glyphs.
var defaultMarkers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Add appends a series; lengths of X and Y must match and be non-empty.
func (c *Chart) Add(name string, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("asciichart: series %q has %d x vs %d y", name, len(x), len(y))
	}
	if len(x) == 0 {
		return fmt.Errorf("asciichart: series %q is empty", name)
	}
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) || math.IsInf(x[i], 0) || math.IsInf(y[i], 0) {
			return fmt.Errorf("asciichart: series %q has non-finite point at %d", name, i)
		}
	}
	m := defaultMarkers[len(c.series)%len(defaultMarkers)]
	c.series = append(c.series, Series{Name: name, X: x, Y: y, Marker: m})
	return nil
}

// MustAdd is Add that panics on error, for literal data.
func (c *Chart) MustAdd(name string, x, y []float64) {
	if err := c.Add(name, x, y); err != nil {
		panic(err)
	}
}

// Render draws the chart into a string.
func (c *Chart) Render() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 16
	}
	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		sb.WriteByte('\n')
	}
	if len(c.series) == 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for _, s := range c.series {
		for i := range s.X {
			col := int((s.X[i] - minX) / (maxX - minX) * float64(w-1))
			row := h - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(h-1))
			if col >= 0 && col < w && row >= 0 && row < h {
				grid[row][col] = s.Marker
			}
		}
	}
	yTop := fmt.Sprintf("%10.1f", maxY)
	yBot := fmt.Sprintf("%10.1f", minY)
	for r := 0; r < h; r++ {
		switch r {
		case 0:
			sb.WriteString(yTop)
		case h - 1:
			sb.WriteString(yBot)
		default:
			sb.WriteString(strings.Repeat(" ", 10))
		}
		sb.WriteString(" |")
		sb.Write(grid[r])
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat(" ", 10))
	sb.WriteString(" +")
	sb.WriteString(strings.Repeat("-", w))
	sb.WriteByte('\n')
	xAxis := fmt.Sprintf("%-*.1f%*.1f", w/2, minX, w/2+w%2, maxX)
	sb.WriteString(strings.Repeat(" ", 12))
	sb.WriteString(xAxis)
	sb.WriteByte('\n')
	if c.XLabel != "" || c.YLabel != "" {
		sb.WriteString(fmt.Sprintf("%12sx: %s   y: %s\n", "", c.XLabel, c.YLabel))
	}
	for _, s := range c.series {
		sb.WriteString(fmt.Sprintf("%12s%c %s\n", "", s.Marker, s.Name))
	}
	return sb.String()
}

// Table renders a simple aligned text table: headers plus rows of cells.
// Column widths adapt to content.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, hd := range headers {
		widths[i] = len(hd)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				sb.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
			} else {
				sb.WriteString(cell)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}
