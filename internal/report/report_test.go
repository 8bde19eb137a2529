package report

import (
	"context"
	"strings"
	"testing"
)

func sample() *Table {
	return &Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Label: "x", Values: []float64{1.5, 2}},
			{Label: "longer-label", Values: []float64{3, 4.25}},
		},
	}
}

func TestTableString(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "longer-label") || !strings.Contains(s, "1.500") {
		t.Fatalf("table render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	csv := sample().CSV()
	if !strings.HasPrefix(csv, "workload,a,b\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "x,1.500,2.000") {
		t.Fatalf("csv body wrong: %q", csv)
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"v"},
		Rows: []Row{{Label: `a,"b"`, Values: []float64{1}}}}
	if !strings.Contains(tab.CSV(), `"a,""b"""`) {
		t.Fatalf("escaping failed: %q", tab.CSV())
	}
}

func TestBarChartScales(t *testing.T) {
	chart := sample().BarChart(10)
	// The larger value (3) must have more #'s than 1.5.
	var bars []int
	for _, line := range strings.Split(chart, "\n") {
		if strings.Contains(line, "|") {
			bars = append(bars, strings.Count(line, "#"))
		}
	}
	if len(bars) != 2 || bars[1] <= bars[0] {
		t.Fatalf("bar lengths = %v", bars)
	}
}

func TestFigure1Static(t *testing.T) {
	f := Figure1()
	total := 0.0
	for _, r := range f.Rows {
		total += r.Values[0]
	}
	if total != 100 {
		t.Fatalf("domain shares sum to %v, want 100", total)
	}
}

func TestTable3MentionsGeometry(t *testing.T) {
	s := Table3()
	for _, want := range []string{"12 MB", "256 KB", "128-entry ROB", "tournament"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table III missing %q:\n%s", want, s)
		}
	}
}

func TestFigure2SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	f, err := Figure2(context.Background(), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Values[0] != 1 {
			t.Fatalf("%s: 1-slave speedup = %v, want 1", r.Label, r.Values[0])
		}
		if r.Values[2] <= 1 || r.Values[2] > 9 {
			t.Fatalf("%s: 8-slave speedup = %v, want in (1, 9]", r.Label, r.Values[2])
		}
		if r.Values[1] > r.Values[2]*1.2 {
			t.Fatalf("%s: speedup not roughly monotone: %v", r.Label, r.Values)
		}
	}
}

func TestFigure5SortHighest(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	f, err := Figure5(context.Background(), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sortRate, best float64
	var bestName string
	for _, r := range f.Rows {
		if r.Label == "Sort" {
			sortRate = r.Values[0]
		}
		if r.Values[0] > best {
			best, bestName = r.Values[0], r.Label
		}
	}
	if bestName != "Sort" {
		t.Fatalf("highest disk write rate is %s (%v), want Sort (%v)", bestName, best, sortRate)
	}
}

func TestMetricFiguresOverSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	results, err := Characterized(context.Background(), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Table{
		Figure3(results), Figure4(results), Figure6(results), Figure7(results),
		Figure8(results), Figure9(results), Figure10(results), Figure11(results),
		Figure12(results),
	} {
		if len(f.Rows) < 26 {
			t.Fatalf("%s: rows = %d", f.Title, len(f.Rows))
		}
		if f.String() == "" || f.CSV() == "" {
			t.Fatalf("%s: empty render", f.Title)
		}
	}
	// Figure 3 must include the avg bar right after HMM.
	f3 := Figure3(results)
	found := false
	for i, r := range f3.Rows {
		if r.Label == "HMM" && i+1 < len(f3.Rows) && f3.Rows[i+1].Label == "avg (data analysis)" {
			found = true
		}
	}
	if !found {
		t.Fatal("Figure 3 missing the data-analysis avg bar")
	}
}
