package trustnet

import (
	"io"

	"repro/internal/metrics"
)

// Table renders fixed-width experiment tables.
type Table = metrics.Table

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return metrics.NewTable(title, headers...)
}

// Series is a named (x, y) sequence with monotonicity checks.
type Series = metrics.Series

// RenderSeries prints aligned series against a shared x column.
func RenderSeries(w io.Writer, title, xName string, series ...*Series) {
	metrics.RenderSeries(w, title, xName, series...)
}

// Quantile returns the q-quantile by linear interpolation (q in [0,1];
// 0 and 1 return the minimum and maximum). An empty slice or a q outside
// [0,1] returns NaN.
func Quantile(xs []float64, q float64) float64 { return metrics.Quantile(xs, q) }
