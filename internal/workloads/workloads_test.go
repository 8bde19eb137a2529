package workloads

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

const testScale = 0.01 // ~1.5 GB simulated inputs: fast but multi-split

func runWorkload(t *testing.T, w *Workload, slaves int) *Stats {
	t.Helper()
	env := NewEnv(slaves, testScale, 12345)
	st, err := w.Run(env)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if st.Makespan <= 0 {
		t.Fatalf("%s: non-positive makespan %v", w.Name, st.Makespan)
	}
	if st.InputSimBytes == 0 {
		t.Fatalf("%s: no simulated input consumed", w.Name)
	}
	return st
}

func TestAllWorkloadsPresent(t *testing.T) {
	ws := All()
	if len(ws) != 11 {
		t.Fatalf("workload count = %d, want 11 (Table I)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if w.Name == "" || w.Run == nil || w.InputGB < 100 {
			t.Fatalf("malformed workload %+v", w)
		}
		if seen[w.Name] {
			t.Fatalf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
	}
	if ByName("pagerank") == nil || ByName("Sort") == nil {
		t.Fatal("ByName lookup failed")
	}
	if ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown")
	}
}

func TestSortGlobalOrder(t *testing.T) {
	st := runWorkload(t, sortWorkload(), 4)
	if st.Quality["globally_sorted"] != 1 {
		t.Fatal("sort output not globally ordered")
	}
	if st.Quality["records"] == 0 {
		t.Fatal("sort produced no records")
	}
}

func TestWordCountConservation(t *testing.T) {
	st := runWorkload(t, wordCountWorkload(), 4)
	if st.Quality["conservation"] != 1 {
		t.Fatalf("word counts not conserved: %+v", st.Quality)
	}
	if st.Quality["distinct_words"] < 100 {
		t.Fatalf("suspiciously few distinct words: %v", st.Quality["distinct_words"])
	}
}

func TestGrepFindsMatches(t *testing.T) {
	st := runWorkload(t, grepWorkload(), 4)
	if st.Quality["matches"] == 0 {
		t.Fatal("grep found no matches of a common word")
	}
}

func TestNaiveBayesAccuracy(t *testing.T) {
	st := runWorkload(t, naiveBayesWorkload(), 4)
	if acc := st.Quality["holdout_accuracy"]; acc < 0.7 {
		t.Fatalf("held-out accuracy = %v, want >= 0.7", acc)
	}
}

func TestSVMAccuracy(t *testing.T) {
	st := runWorkload(t, svmWorkload(), 4)
	if acc := st.Quality["train_accuracy"]; acc < 0.65 {
		t.Fatalf("train accuracy = %v, want >= 0.65", acc)
	}
}

func TestKMeansMatchesSerial(t *testing.T) {
	st := runWorkload(t, kmeansWorkload(), 4)
	if d := st.Quality["serial_divergence"]; d > 1e-6 {
		t.Fatalf("distributed K-means diverged from serial by %v", d)
	}
}

func TestFuzzyKMeansMatchesSerial(t *testing.T) {
	st := runWorkload(t, fuzzyKMeansWorkload(), 4)
	if d := st.Quality["serial_divergence"]; d > 1e-6 {
		t.Fatalf("distributed fuzzy K-means diverged from serial by %v", d)
	}
}

func TestIBCFSimilaritiesMatchSerial(t *testing.T) {
	st := runWorkload(t, ibcfWorkload(), 4)
	if d := st.Quality["cosine_divergence"]; d > 1e-9 {
		t.Fatalf("distributed cosine diverged from serial by %v", d)
	}
	if st.Quality["pairs"] == 0 {
		t.Fatal("no item pairs produced")
	}
}

func TestHMMDecodeAccuracy(t *testing.T) {
	st := runWorkload(t, hmmWorkload(), 4)
	if acc := st.Quality["decode_accuracy"]; acc < 0.5 {
		t.Fatalf("decode accuracy = %v, want >= 0.5 (4-state chance is 0.25)", acc)
	}
}

func TestPageRankMatchesSerial(t *testing.T) {
	st := runWorkload(t, pageRankWorkload(), 4)
	if l1 := st.Quality["serial_l1"]; l1 > 1e-9 {
		t.Fatalf("distributed PageRank diverged from serial by %v", l1)
	}
	if sum := st.Quality["rank_sum"]; sum < 0.99 || sum > 1.01 {
		t.Fatalf("rank sum = %v, want ~1", sum)
	}
}

func TestHiveBenchMatchesEngine(t *testing.T) {
	st := runWorkload(t, hiveBenchWorkload(), 4)
	for _, k := range []string{"q1_match", "q2_revenue_match", "q3_revenue_match"} {
		if st.Quality[k] != 1 {
			t.Fatalf("%s failed: %+v", k, st.Quality)
		}
	}
	if st.Quality["q2_groups_mr"] != st.Quality["q2_groups_hive"] {
		t.Fatalf("q2 group counts differ: %+v", st.Quality)
	}
	if st.Quality["q3_groups_mr"] != st.Quality["q3_groups_hive"] {
		t.Fatalf("q3 group counts differ: %+v", st.Quality)
	}
}

func TestSpeedupShape(t *testing.T) {
	// Figure 2's core claims at reduced scale: every workload speeds up
	// from 1 to 8 slaves; speedups are diverse; values stay in a sane band.
	if testing.Short() {
		t.Skip("multi-cluster sweep")
	}
	for _, w := range []*Workload{sortWorkload(), kmeansWorkload(), naiveBayesWorkload()} {
		base := runWorkload(t, w, 1)
		big := runWorkload(t, w, 8)
		speedup := base.Makespan / big.Makespan
		if speedup < 1.5 || speedup > 9 {
			t.Fatalf("%s: speedup(8) = %v, want in (1.5, 9)", w.Name, speedup)
		}
	}
}

func TestSortIsMostDiskIntensive(t *testing.T) {
	// Figure 5: Sort has the highest disk writes/second of the eleven.
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	sortRate := runWorkload(t, sortWorkload(), 4).DiskWritesPerSecond()
	for _, w := range []*Workload{grepWorkload(), kmeansWorkload(), naiveBayesWorkload()} {
		if r := runWorkload(t, w, 4).DiskWritesPerSecond(); r >= sortRate {
			t.Fatalf("%s disk writes/s %v >= Sort's %v", w.Name, r, sortRate)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runWorkload(t, wordCountWorkload(), 3)
	b := runWorkload(t, wordCountWorkload(), 3)
	if a.Makespan != b.Makespan || a.DiskWriteOps != b.DiskWriteOps {
		t.Fatalf("nondeterministic run: %v/%v vs %v/%v",
			a.Makespan, a.DiskWriteOps, b.Makespan, b.DiskWriteOps)
	}
}

// TestSlaveSweepMatchesSerial: the concurrent slave-count sweep must
// reproduce the serial loop's stats exactly — every environment is
// independent and identically seeded.
func TestSlaveSweepMatchesSerial(t *testing.T) {
	w := wordCountWorkload()
	counts := []int{1, 4, 8}

	var serial []*Stats
	for _, slaves := range counts {
		env := NewEnv(slaves, testScale, 12345)
		st, err := w.Run(env)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, st)
	}

	all, err := SlaveSweepMemo(context.Background(), nil, []*Workload{w}, counts, testScale, 12345, 3)
	if err != nil {
		t.Fatal(err)
	}
	concurrent := all[0]
	for i, slaves := range counts {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("%d slaves: concurrent stats diverge from serial\nserial:     %+v\nconcurrent: %+v",
				slaves, serial[i], concurrent[i])
		}
	}
}

// TestWorkloadRunsAreDeterministic: a cluster record is a pure function of
// its key — two runs of the same (workload, slaves, scale, seed) marshal to
// the same bytes, Quality included (the store's record checksum and the
// replicas' digests cover it).
func TestWorkloadRunsAreDeterministic(t *testing.T) {
	for _, w := range All() {
		for _, slaves := range []int{1, 8} {
			var got [2][]byte
			for i := range got {
				b, err := json.Marshal(runWorkload(t, w, slaves))
				if err != nil {
					t.Fatal(err)
				}
				got[i] = b
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Errorf("%s on %d slaves: two runs differ:\n%s\n%s", w.Name, slaves, got[0], got[1])
			}
		}
	}
}
