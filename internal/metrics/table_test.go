package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("b", 42)
	out := tab.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5000") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	if len(tab.rows) != 2 {
		t.Fatalf("rows = %d", len(tab.rows))
	}
}

func TestTableAlignsColumns(t *testing.T) {
	tab := NewTable("", "x", "y")
	tab.AddRow("longvalue", 1)
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("unexpected line count:\n%s", out)
	}
	// Header row must be padded to the data width.
	if len(strings.TrimRight(lines[1], " ")) < len("longvalue") {
		t.Fatalf("separator not widened:\n%s", out)
	}
}

func TestSeriesMonotone(t *testing.T) {
	var s Series
	for i, y := range []float64{0, 0.1, 0.3, 0.29, 0.5} {
		s.Add(float64(i), y)
	}
	if !s.MonotoneUp(0.02) {
		t.Fatal("should be monotone up within eps=0.02")
	}
	if s.MonotoneUp(0.001) {
		t.Fatal("should not be strictly monotone with eps=0.001")
	}
	var d Series
	for i, y := range []float64{1, 0.8, 0.85, 0.5} {
		d.Add(float64(i), y)
	}
	if !d.MonotoneDown(0.1) {
		t.Fatal("should be monotone down within eps=0.1")
	}
	if d.MonotoneDown(0.01) {
		t.Fatal("should not be monotone down with eps=0.01")
	}
}

func TestRenderSeries(t *testing.T) {
	a := &Series{Name: "s1"}
	b := &Series{Name: "s2"}
	for i := 0; i < 3; i++ {
		a.Add(float64(i), float64(i)*2)
		b.Add(float64(i), float64(i)*3)
	}
	var sb strings.Builder
	RenderSeries(&sb, "fig", "x", a, b)
	out := sb.String()
	if !strings.Contains(out, "s1") || !strings.Contains(out, "s2") {
		t.Fatalf("missing series names:\n%s", out)
	}
	if !strings.Contains(out, "4.0000") || !strings.Contains(out, "6.0000") {
		t.Fatalf("missing values:\n%s", out)
	}
}

func TestRenderSeriesEmpty(t *testing.T) {
	var sb strings.Builder
	RenderSeries(&sb, "empty", "x")
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty render missing title")
	}
}
