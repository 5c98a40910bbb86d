package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table renders fixed-width ASCII tables for experiment output. It is the
// uniform way `cmd/experiments` prints every reproduced figure as rows.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row of cells; each cell is formatted with %v, floats with
// four significant decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return strconv.FormatFloat(v, 'f', 4, 64)
	case float32:
		return strconv.FormatFloat(float64(v), 'f', 4, 32)
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(t.headers))
		for i := range t.headers {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a named (x, y) sequence used for figure-style output.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// MonotoneUp reports whether Y is non-decreasing within tolerance eps
// (allows small noise dips of at most eps).
func (s *Series) MonotoneUp(eps float64) bool {
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1]-eps {
			return false
		}
	}
	return true
}

// MonotoneDown reports whether Y is non-increasing within tolerance eps.
func (s *Series) MonotoneDown(eps float64) bool {
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] > s.Y[i-1]+eps {
			return false
		}
	}
	return true
}

// RenderSeries writes one aligned row per x with all series' y values, a
// compact multi-series "figure as a table".
func RenderSeries(w io.Writer, title, xName string, series ...*Series) {
	headers := append([]string{xName}, make([]string, len(series))...)
	for i, s := range series {
		headers[i+1] = s.Name
	}
	tab := NewTable(title, headers...)
	if len(series) == 0 {
		tab.Render(w)
		return
	}
	for i := 0; i < series[0].Len(); i++ {
		cells := make([]any, len(series)+1)
		cells[0] = series[0].X[i]
		for j, s := range series {
			if i < s.Len() {
				cells[j+1] = s.Y[i]
			} else {
				cells[j+1] = ""
			}
		}
		tab.AddRow(cells...)
	}
	tab.Render(w)
}
