package hive

import (
	"math"
	"testing"
	"testing/quick"
)

func rankings() *Table {
	t := NewTable("rankings", Schema{
		{Name: "pageurl", Kind: String},
		{Name: "pagerank", Kind: Int},
	})
	t.Append("a.com", int64(30))
	t.Append("b.com", int64(55))
	t.Append("c.com", int64(12))
	t.Append("d.com", int64(80))
	return t
}

func visits() *Table {
	t := NewTable("uservisits", Schema{
		{Name: "sourceip", Kind: String},
		{Name: "desturl", Kind: String},
		{Name: "adrevenue", Kind: Float},
	})
	t.Append("1.1.1.1", "a.com", 2.0)
	t.Append("1.1.1.1", "b.com", 3.5)
	t.Append("2.2.2.2", "b.com", 1.0)
	t.Append("2.2.2.2", "zz.com", 9.0) // no matching ranking
	return t
}

func TestFilter(t *testing.T) {
	r := rankings().Scan().filter(func(row Row) bool { return row[1].(int64) > 20 })
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
}

func TestFilterLike(t *testing.T) {
	r := rankings().Scan().FilterLike("pageurl", ".com")
	if len(r.Rows) != 4 {
		t.Fatalf("LIKE %%.com%% matched %d, want 4", len(r.Rows))
	}
	r = rankings().Scan().FilterLike("pageurl", "b.")
	if len(r.Rows) != 1 || r.Rows[0][0].(string) != "b.com" {
		t.Fatalf("LIKE %%b.%% = %v", r.Rows)
	}
}

func TestJoinInner(t *testing.T) {
	j := visits().Scan().Join(rankings().Scan(), "desturl", "pageurl")
	if len(j.Rows) != 3 { // zz.com drops out
		t.Fatalf("join rows = %d, want 3", len(j.Rows))
	}
	// Schema: sourceip, desturl, adrevenue, pagerank.
	if j.Schema.index("pagerank") < 0 || j.Schema.index("sourceip") < 0 {
		t.Fatalf("join schema = %v", j.Schema)
	}
	// Verify a joined value: visit to b.com must carry pagerank 55.
	pr := j.Schema.mustIndex("pagerank")
	du := j.Schema.mustIndex("desturl")
	for _, row := range j.Rows {
		if row[du].(string) == "b.com" && row[pr].(int64) != 55 {
			t.Fatalf("b.com joined with pagerank %v", row[pr])
		}
	}
}

func TestJoinBuildSideChoiceIrrelevant(t *testing.T) {
	// Joining in either direction yields the same multiset of
	// (desturl, pagerank) pairs.
	j1 := visits().Scan().Join(rankings().Scan(), "desturl", "pageurl")
	j2 := rankings().Scan().Join(visits().Scan(), "pageurl", "desturl")
	if len(j1.Rows) != len(j2.Rows) {
		t.Fatalf("asymmetric join: %d vs %d", len(j1.Rows), len(j2.Rows))
	}
}

func TestGroupByAggregates(t *testing.T) {
	g := visits().Scan().GroupBy([]string{"sourceip"}, []Agg{{Op: Sum, Col: "adrevenue", As: "rev"}})
	if len(g.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(g.Rows))
	}
	// Rows sorted by key: 1.1.1.1 first.
	if g.Rows[0][0].(string) != "1.1.1.1" {
		t.Fatalf("group order = %v", g.Rows)
	}
	if got := g.Rows[0][1].(float64); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("sum = %v, want 5.5", got)
	}
}

func TestGroupByGlobal(t *testing.T) {
	g := visits().Scan().GroupBy(nil, []Agg{{Op: Avg, Col: "adrevenue", As: "avg"}})
	if len(g.Rows) != 1 {
		t.Fatalf("global group rows = %d", len(g.Rows))
	}
	if got := g.Rows[0][0].(float64); math.Abs(got-3.875) > 1e-12 {
		t.Fatalf("avg = %v, want 3.875", got)
	}
}

func TestUnknownColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rankings().Scan().FilterLike("nope", "a")
}

func TestArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rankings().Append("only-one-value")
}

func TestGroupSumMatchesManual(t *testing.T) {
	// Property: SUM over GroupBy equals a manual accumulation.
	if err := quick.Check(func(vals []float64, keys []uint8) bool {
		n := len(vals)
		if len(keys) < n {
			n = len(keys)
		}
		tab := NewTable("t", Schema{{Name: "k", Kind: Int}, {Name: "v", Kind: Float}})
		manual := map[int64]float64{}
		for i := 0; i < n; i++ {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				continue
			}
			k := int64(keys[i] % 8)
			tab.Append(k, vals[i])
			manual[k] += vals[i]
		}
		g := tab.Scan().GroupBy([]string{"k"}, []Agg{{Op: Sum, Col: "v", As: "s"}})
		if len(g.Rows) != len(manual) {
			return false
		}
		for _, row := range g.Rows {
			want := manual[row[0].(int64)]
			got := row[1].(float64)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
