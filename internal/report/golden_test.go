package report

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// testEngine and testCluster are this package's memo tables: every test
// that runs a sweep takes them through goldenOptions, so the sweeps
// simulate once per test binary.
var (
	testEngine  = sweep.NewEngine()
	testCluster = workloads.NewStatsCache(nil)
)

// goldenOptions fixes the run the golden files were cut at: the default
// seed with the reduced trace/cluster sizes the rest of this package's
// tests use, on the package's shared memo tables.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.01
	o.Instrs = 120_000
	o.Warmup = 60_000
	o.Engine, o.Cluster = testEngine, testCluster
	return o
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/report -run TestGolden -update` to cut golden files)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from its golden file; diff the encoder change or re-cut with -update\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

func encodeBoth(t *testing.T, tab *Table) (jsonB, csvB []byte) {
	t.Helper()
	j, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j, []byte(tab.CSV())
}

// TestGoldenEncoders pins the machine-readable encodings of Figure 1,
// Figure 2 and Table I at the default seed: these bytes are what both the
// CLI's -csv path and dcserved's /v1 responses serve, so any encoder or
// simulation drift must be a deliberate, reviewed change.
func TestGoldenEncoders(t *testing.T) {
	j, c := encodeBoth(t, Figure1())
	checkGolden(t, "figure1.json", j)
	checkGolden(t, "figure1.csv", c)

	if testing.Short() {
		t.Skip("cluster and characterization sweeps")
	}
	o := goldenOptions()
	ctx := context.Background()

	f2, err := Figure2(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	j, c = encodeBoth(t, f2)
	checkGolden(t, "figure2.json", j)
	checkGolden(t, "figure2.csv", c)

	t1, _, err := TableByNumber(ctx, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, c = encodeBoth(t, t1)
	checkGolden(t, "table1.json", j)
	checkGolden(t, "table1.csv", c)
}
