package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// tableWire is the machine-readable form of a Table, shared by the CLI's
// JSON output and the dcserved HTTP service. Values carry full float64
// precision; Precision is the display hint the text renderers use.
type tableWire struct {
	Title     string    `json:"title"`
	Columns   []string  `json:"columns"`
	Precision int       `json:"precision"`
	Notes     []string  `json:"notes,omitempty"`
	Rows      []rowWire `json:"rows"`
}

type rowWire struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// MarshalJSON encodes the table in its wire form, so json.Marshal and
// json.NewEncoder work on tables directly.
func (t *Table) MarshalJSON() ([]byte, error) {
	w := tableWire{
		Title:     t.Title,
		Columns:   t.Columns,
		Precision: t.prec(),
		Notes:     t.Notes,
		Rows:      make([]rowWire, len(t.Rows)),
	}
	if w.Columns == nil {
		w.Columns = []string{}
	}
	for i, r := range t.Rows {
		vs := r.Values
		if vs == nil {
			vs = []float64{}
		}
		w.Rows[i] = rowWire{Label: r.Label, Values: vs}
	}
	return json.Marshal(w)
}

// JSON renders the table as indented JSON ending in a newline — the CLI's
// and the service's shared JSON encoding.
func (t *Table) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// writeCSV streams the table as CSV: a "workload" header row, then one
// record per row with values printed at the table's precision (missing
// trailing values become empty fields). Both the CLI's -csv path and the
// service's text/csv responses are this encoder.
func (t *Table) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"workload"}, t.Columns...)); err != nil {
		return err
	}
	rec := make([]string, 1+len(t.Columns))
	for _, r := range t.Rows {
		rec[0] = r.Label
		for j := range t.Columns {
			rec[1+j] = ""
			if j < len(r.Values) {
				rec[1+j] = fmt.Sprintf("%.*f", t.prec(), r.Values[j])
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	if err := t.writeCSV(&b); err != nil {
		// strings.Builder cannot fail; csv.Writer only fails on I/O.
		panic(err)
	}
	return b.String()
}
