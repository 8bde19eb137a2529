package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// defaultLatencyBounds are the fixed histogram bucket upper bounds, in
// seconds, shared by the per-endpoint and per-job-kind latency
// histograms: 10 µs (a warm read of retained bytes) up through 10 s (a
// cold cluster cell on a loaded worker), roughly 2.5x apart. Fixed
// buckets keep the /metrics surface golden-testable and let histograms
// from different processes be summed by a scraper.
var defaultLatencyBounds = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with lock-free observe,
// rendered in the Prometheus text exposition's _bucket/_sum/_count shape.
type histogram struct {
	bounds []float64      // upper bounds in seconds, ascending
	counts []atomic.Int64 // len(bounds)+1; the last bucket is +Inf
	sumNS  atomic.Int64
	count  atomic.Int64
}

// newHistogram returns a histogram over the given ascending upper bounds
// (nil uses defaultLatencyBounds).
func newHistogram(bounds []float64) *histogram {
	if bounds == nil {
		bounds = defaultLatencyBounds
	}
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s) // first bound >= s, len(bounds) = +Inf
	h.counts[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.count.Add(1)
}

// histogramData is a point-in-time snapshot: cumulative counts per bound
// (the +Inf bucket equals Count), total seconds and total observations.
type histogramData struct {
	Bounds     []float64
	Cumulative []int64
	Sum        float64
	Count      int64
}

// snapshot returns the histogram's current state with counts made
// cumulative, the shape the Prometheus text format wants.
func (h *histogram) snapshot() histogramData {
	d := histogramData{
		Bounds:     h.bounds,
		Cumulative: make([]int64, len(h.bounds)),
		Sum:        float64(h.sumNS.Load()) / 1e9,
		Count:      h.count.Load(),
	}
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		d.Cumulative[i] = cum
	}
	return d
}

// HistogramSet is a family of histograms keyed by one label value —
// per-endpoint request latency, per-kind job latency. Labels are created
// on first observation; all histograms share one bounds slice.
type HistogramSet struct {
	bounds []float64
	mu     sync.Mutex
	m      map[string]*histogram
}

// NewHistogramSet returns an empty set over bounds (nil uses
// defaultLatencyBounds).
func NewHistogramSet(bounds []float64) *HistogramSet {
	if bounds == nil {
		bounds = defaultLatencyBounds
	}
	return &HistogramSet{bounds: bounds, m: make(map[string]*histogram)}
}

// Observe records one duration under the given label value.
func (s *HistogramSet) Observe(label string, d time.Duration) {
	s.mu.Lock()
	h, ok := s.m[label]
	if !ok {
		h = newHistogram(s.bounds)
		s.m[label] = h
	}
	s.mu.Unlock()
	h.observe(d)
}

// sortedLabels returns the observed label values, sorted — the deterministic
// iteration order the /metrics rendering (and its golden test) needs.
func (s *HistogramSet) sortedLabels() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.m))
	for l := range s.m {
		out = append(out, l)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// get returns the label's histogram, or nil if it was never observed.
func (s *HistogramSet) get(label string) *histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[label]
}

// count returns the label's observation count (0 if never observed) —
// the _count sample, used directly by consistency checks.
func (s *HistogramSet) count(label string) int64 {
	if h := s.get(label); h != nil {
		return h.count.Load()
	}
	return 0
}

// WriteProm renders the set as one Prometheus histogram family: HELP and
// TYPE lines, then per label (sorted) the cumulative _bucket samples with
// le="..." bounds plus +Inf, _sum and _count. An empty set still emits
// the family header so scrapers learn the metric exists.
func (s *HistogramSet) WriteProm(b *strings.Builder, name, labelName, help string) {
	b.WriteString("# HELP " + name + " " + help + "\n")
	b.WriteString("# TYPE " + name + " histogram\n")
	for _, label := range s.sortedLabels() {
		d := s.get(label).snapshot()
		lp := labelName + "=" + strconv.Quote(label)
		for i, bound := range d.Bounds {
			b.WriteString(name + "_bucket{" + lp + ",le=\"" +
				strconv.FormatFloat(bound, 'g', -1, 64) + "\"} " +
				strconv.FormatInt(d.Cumulative[i], 10) + "\n")
		}
		b.WriteString(name + "_bucket{" + lp + ",le=\"+Inf\"} " +
			strconv.FormatInt(d.Count, 10) + "\n")
		b.WriteString(name + "_sum{" + lp + "} " +
			strconv.FormatFloat(d.Sum, 'g', -1, 64) + "\n")
		b.WriteString(name + "_count{" + lp + "} " +
			strconv.FormatInt(d.Count, 10) + "\n")
	}
}
