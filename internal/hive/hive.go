// Package hive is a miniature data-warehouse engine — typed tables and the
// relational operators (scan, LIKE filter, hash join, group-by aggregation)
// needed to run the Hive-bench query suite the paper uses as its
// data-warehouse workload (Section II-C.6). It plays the
// role Hive 0.6 plays in the paper; internal/workloads compiles its query
// plans onto the MapReduce engine.
package hive

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is a column type.
type Kind int

// Column kinds.
const (
	String Kind = iota
	Int
	Float
)

// Col is one column definition.
type Col struct {
	Name string
	Kind Kind
}

// Schema is an ordered column list.
type Schema []Col

// index returns the position of the named column, or -1.
func (s Schema) index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// mustIndex is index but panics on unknown columns — schema errors are
// programming errors in this engine.
func (s Schema) mustIndex(name string) int {
	i := s.index(name)
	if i < 0 {
		panic(fmt.Sprintf("hive: unknown column %q", name))
	}
	return i
}

// Row is one tuple; entries are string, int64 or float64 per the schema.
type Row []any

// Relation is a materialised intermediate result.
type Relation struct {
	Schema Schema
	Rows   []Row
}

// Table is a named base relation.
type Table struct {
	Name string
	Relation
}

// NewTable creates an empty table.
func NewTable(name string, schema Schema) *Table {
	return &Table{Name: name, Relation: Relation{Schema: schema}}
}

// Append adds a row, validating arity.
func (t *Table) Append(vals ...any) {
	if len(vals) != len(t.Schema) {
		panic(fmt.Sprintf("hive: row arity %d != schema %d for %s", len(vals), len(t.Schema), t.Name))
	}
	t.Rows = append(t.Rows, Row(vals))
}

// Scan starts a query over the table (a shallow copy; operators never
// mutate their input).
func (t *Table) Scan() *Relation {
	return &Relation{Schema: t.Schema, Rows: t.Rows}
}

// filter keeps rows satisfying pred.
func (r *Relation) filter(pred func(Row) bool) *Relation {
	out := &Relation{Schema: r.Schema}
	for _, row := range r.Rows {
		if pred(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// FilterLike keeps rows whose string column contains substr — the LIKE
// '%substr%' predicate of the Hive-bench grep query.
func (r *Relation) FilterLike(col, substr string) *Relation {
	i := r.Schema.mustIndex(col)
	return r.filter(func(row Row) bool {
		s, _ := row[i].(string)
		return strings.Contains(s, substr)
	})
}

// Join hash-joins r with other on r.leftCol == other.rightCol (equi-join,
// inner). The output schema is r's columns followed by other's with the
// join key deduplicated on the right side.
func (r *Relation) Join(other *Relation, leftCol, rightCol string) *Relation {
	li := r.Schema.mustIndex(leftCol)
	ri := other.Schema.mustIndex(rightCol)
	// Build side: the smaller relation, as a real engine would pick.
	build, probe := other, r
	bi, pi := ri, li
	swapped := false
	if len(r.Rows) < len(other.Rows) {
		build, probe = r, other
		bi, pi = li, ri
		swapped = true
	}
	ht := make(map[any][]Row, len(build.Rows))
	for _, row := range build.Rows {
		ht[row[bi]] = append(ht[row[bi]], row)
	}
	var schema Schema
	appendCols := func(s Schema, skip int) {
		for i, c := range s {
			if i == skip {
				continue
			}
			schema = append(schema, c)
		}
	}
	schema = append(schema, r.Schema...)
	appendCols(other.Schema, ri)
	out := &Relation{Schema: schema}
	emit := func(left, right Row) {
		nr := make(Row, 0, len(schema))
		nr = append(nr, left...)
		for i, v := range right {
			if i == ri {
				continue
			}
			nr = append(nr, v)
		}
		out.Rows = append(out.Rows, nr)
	}
	for _, prow := range probe.Rows {
		for _, brow := range ht[prow[pi]] {
			if swapped {
				emit(brow, prow)
			} else {
				emit(prow, brow)
			}
		}
	}
	return out
}

// AggOp is an aggregation operator.
type AggOp int

// Aggregation operators.
const (
	Sum AggOp = iota
	Avg
)

// Agg is one aggregate expression: Op(Col) AS As.
type Agg struct {
	Op  AggOp
	Col string
	As  string
}

type aggState struct {
	n   int64
	sum float64
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	default:
		panic(fmt.Sprintf("hive: non-numeric value %T in aggregate", v))
	}
}

// GroupBy groups by the key columns and evaluates the aggregates. Output
// rows are ordered by group key for determinism. An empty key list yields a
// single global group.
func (r *Relation) GroupBy(keys []string, aggs []Agg) *Relation {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		keyIdx[i] = r.Schema.mustIndex(k)
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		aggIdx[i] = r.Schema.mustIndex(a.Col)
	}
	groups := make(map[string][]*aggState)
	order := make(map[string]Row) // key string -> key values
	var keyStrings []string
	for _, row := range r.Rows {
		var kb strings.Builder
		keyVals := make(Row, len(keyIdx))
		for i, ki := range keyIdx {
			keyVals[i] = row[ki]
			fmt.Fprintf(&kb, "%v\x00", row[ki])
		}
		ks := kb.String()
		st, ok := groups[ks]
		if !ok {
			st = make([]*aggState, len(aggs))
			for i := range st {
				st[i] = &aggState{}
			}
			groups[ks] = st
			order[ks] = keyVals
			keyStrings = append(keyStrings, ks)
		}
		for i := range aggs {
			st[i].n++
			st[i].sum += toFloat(row[aggIdx[i]])
		}
	}
	sort.Strings(keyStrings)

	schema := make(Schema, 0, len(keys)+len(aggs))
	for i, k := range keys {
		schema = append(schema, Col{Name: k, Kind: r.Schema[keyIdx[i]].Kind})
	}
	for _, a := range aggs {
		schema = append(schema, Col{Name: a.As, Kind: Float})
	}
	out := &Relation{Schema: schema}
	for _, ks := range keyStrings {
		st := groups[ks]
		row := make(Row, 0, len(schema))
		row = append(row, order[ks]...)
		for i, a := range aggs {
			switch a.Op {
			case Sum:
				row = append(row, st[i].sum)
			case Avg:
				row = append(row, st[i].sum/float64(st[i].n))
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}
