package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets pins bucket placement against explicit bounds,
// including the inclusive-upper-bound (le) edge Prometheus semantics
// require: an observation exactly on a bound lands in that bound's bucket.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	h.observe(500 * time.Microsecond) // bucket le=0.001
	h.observe(time.Millisecond)       // exactly on the bound: still le=0.001
	h.observe(5 * time.Millisecond)   // le=0.01
	h.observe(50 * time.Millisecond)  // le=0.1
	h.observe(500 * time.Millisecond) // +Inf only

	d := h.snapshot()
	if want := []int64{2, 3, 4}; fmt.Sprint(d.Cumulative) != fmt.Sprint(want) {
		t.Errorf("cumulative = %v, want %v", d.Cumulative, want)
	}
	if d.Count != 5 {
		t.Errorf("count = %d, want 5", d.Count)
	}
	if want := 0.5565; d.Sum < want-1e-9 || d.Sum > want+1e-9 {
		t.Errorf("sum = %v s, want %v", d.Sum, want)
	}
}

// TestHistogramSetWriteProm pins the rendered exposition: one family
// header, labels in sorted order, a full bucket ladder per label ending in
// +Inf, and _sum/_count lines. An empty set still announces the family.
func TestHistogramSetWriteProm(t *testing.T) {
	s := NewHistogramSet([]float64{0.01, 0.1})
	s.Observe("cluster", 5*time.Millisecond)
	s.Observe("counters", 50*time.Millisecond)
	s.Observe("counters", 50*time.Millisecond)

	var b strings.Builder
	s.WriteProm(&b, "job_seconds", "kind", "Job latency.")
	want := strings.Join([]string{
		"# HELP job_seconds Job latency.",
		"# TYPE job_seconds histogram",
		`job_seconds_bucket{kind="cluster",le="0.01"} 1`,
		`job_seconds_bucket{kind="cluster",le="0.1"} 1`,
		`job_seconds_bucket{kind="cluster",le="+Inf"} 1`,
		`job_seconds_sum{kind="cluster"} 0.005`,
		`job_seconds_count{kind="cluster"} 1`,
		`job_seconds_bucket{kind="counters",le="0.01"} 0`,
		`job_seconds_bucket{kind="counters",le="0.1"} 2`,
		`job_seconds_bucket{kind="counters",le="+Inf"} 2`,
		`job_seconds_sum{kind="counters"} 0.1`,
		`job_seconds_count{kind="counters"} 2`,
	}, "\n") + "\n"
	if b.String() != want {
		t.Errorf("WriteProm output:\n%s\nwant:\n%s", b.String(), want)
	}

	var empty strings.Builder
	NewHistogramSet(nil).WriteProm(&empty, "req_seconds", "endpoint", "h")
	if got := empty.String(); got != "# HELP req_seconds h\n# TYPE req_seconds histogram\n" {
		t.Errorf("empty set rendered %q, want just the family header", got)
	}
}

// TestHistogramSetCount: count reads through to the label's _count and is
// 0 (not a panic) for labels never observed.
func TestHistogramSetCount(t *testing.T) {
	s := NewHistogramSet(nil)
	if s.count("ghost") != 0 {
		t.Error("unobserved label should count 0")
	}
	s.Observe("k", time.Millisecond)
	s.Observe("k", time.Millisecond)
	if got := s.count("k"); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if got := s.sortedLabels(); fmt.Sprint(got) != "[k]" {
		t.Errorf("Labels = %v", got)
	}
}

// TestHistogramConcurrent must be clean under -race: Observe is called
// from many goroutines against both a shared label and fresh ones.
func TestHistogramConcurrent(t *testing.T) {
	const workers, perWorker = 8, 200
	s := NewHistogramSet(nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Observe("shared", time.Millisecond)
				s.Observe(fmt.Sprintf("w%d", w), time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := s.count("shared"); got != workers*perWorker {
		t.Errorf("shared count = %d, want %d", got, workers*perWorker)
	}
	if got := len(s.sortedLabels()); got != workers+1 {
		t.Errorf("labels = %d, want %d", got, workers+1)
	}
	d := s.get("shared").snapshot()
	if d.Cumulative[len(d.Cumulative)-1] != d.Count {
		t.Errorf("last bound cumulative %d != count %d", d.Cumulative[len(d.Cumulative)-1], d.Count)
	}
}
