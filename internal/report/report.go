// Package report renders experiment outputs as aligned ASCII tables,
// markdown tables and CSV series — the formats the CLI and benchmark
// harness print so results can be compared line-by-line with the
// paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows under a header and renders them aligned.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	//lint:ignore floatcmp intentional exact integrality test choosing a display format; never feeds computation
	if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.4g", x)
}

// widths computes per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.header))
	for i, h := range t.header {
		w[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WriteTo renders the table as aligned ASCII.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := t.widths()
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no escaping beyond
// what the simple numeric/label content needs).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteString("\n")
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Series writes (x, y) pairs as a two-column CSV, the exchange format
// for figure data.
func Series(w io.Writer, name string, xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("report: series %q has %d xs but %d ys", name, len(xs), len(ys))
	}
	if _, err := fmt.Fprintf(w, "# series: %s\nx,y\n", name); err != nil {
		return err
	}
	for i := range xs {
		if _, err := fmt.Fprintf(w, "%g,%g\n", xs[i], ys[i]); err != nil {
			return err
		}
	}
	return nil
}

// Heatmap renders a matrix with row/column labels as an aligned grid,
// for Figure-2 style surfaces.
func Heatmap(w io.Writer, title string, rowLabels, colLabels []float64, values [][]float64) error {
	if len(values) != len(rowLabels) {
		return fmt.Errorf("report: heatmap %q: %d rows but %d labels", title, len(values), len(rowLabels))
	}
	t := NewTable(title, append([]string{""}, labels(colLabels)...)...)
	for i, row := range values {
		cells := make([]interface{}, 0, len(row)+1)
		cells = append(cells, fmt.Sprintf("%g", rowLabels[i]))
		for _, v := range row {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(cells...)
	}
	_, err := t.WriteTo(w)
	return err
}

func labels(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%g", x)
	}
	return out
}
