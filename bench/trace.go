package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dcbench/internal/obs"
)

// This file is the traced run's bookkeeping. The benchmark records one root
// span per operation with children http.roundtrip and verify, sends the
// op's id as X-Dcs-Trace, and afterwards reads every server process's
// /debug/traces so the server's own spans hang under the same id. Server
// spans are flat (offset + duration), so nesting is rebuilt from interval
// containment. A span's self time is its duration minus the part of it its
// children cover.

// opTrace is the client side of one traced operation.
type opTrace struct {
	ID       string
	Name     string
	Start    time.Time // request sent
	Replied  time.Time // reply fully read
	Verified time.Time // verification done
}

// span is one node of an assembled trace. Times are milliseconds from the
// op's start; Proc says which process recorded it.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"` // 0 = root
	TraceID string            `json:"trace_id"`
	Proc    string            `json:"proc"`
	Name    string            `json:"name"`
	StartMS float64           `json:"start_ms"`
	DurMS   float64           `json:"dur_ms"`
	SelfMS  float64           `json:"self_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func (s *span) end() float64 { return s.StartMS + s.DurMS }

// ringSize is how many finished traces a server keeps.
const ringSize = obs.DefaultRingSize

// fetchTraces reads the newest limit traces of a server's ring, newest
// first.
func fetchTraces(s *server, limit int) ([]obs.TraceData, error) {
	resp, err := http.Get(s.url(fmt.Sprintf("/debug/traces?limit=%d", limit)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s.scrapes++
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s /debug/traces: %w", s.role, err)
	}
	return doc.Traces, nil
}

// containSlackMS forgives clock granularity when deciding that one span
// lies inside another: server offsets are rounded to the microsecond and
// two processes stamp the same instant a few microseconds apart.
const containSlackMS = 0.02

// assemble builds one op's span tree: the client's three spans plus every
// server trace recorded under the op's id, nested by containment. Spans
// come back in start order with ids, parents and self times filled.
func assemble(op opTrace, server map[string][]obs.TraceData) []*span {
	at := func(t time.Time) float64 { return ms(t.Sub(op.Start)) } // offset from the op's start
	spans := []*span{
		{TraceID: op.ID, Proc: "bench", Name: "op", StartMS: 0, DurMS: at(op.Verified), Attrs: map[string]string{"op": op.Name}},
		{TraceID: op.ID, Proc: "bench", Name: "http.roundtrip", StartMS: 0, DurMS: at(op.Replied)},
		{TraceID: op.ID, Proc: "bench", Name: "verify", StartMS: at(op.Replied), DurMS: ms(op.Verified.Sub(op.Replied))},
	}
	for proc, traces := range server {
		for _, td := range traces {
			if td.ID != op.ID {
				continue
			}
			base := at(td.Start)
			spans = append(spans, &span{TraceID: op.ID, Proc: proc, Name: "server " + td.Name,
				StartMS: base, DurMS: td.DurMS, Attrs: td.Attrs})
			for _, sd := range td.Spans {
				spans = append(spans, &span{TraceID: op.ID, Proc: proc, Name: sd.Name,
					StartMS: base + sd.StartMS, DurMS: sd.DurMS, Attrs: sd.Attrs})
			}
		}
	}
	nest(spans)
	return spans
}

// nest orders spans by start (longer first on ties), assigns ids, finds
// each span's parent as the innermost earlier span that contains it, and
// computes self times.
func nest(spans []*span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartMS != spans[j].StartMS {
			return spans[i].StartMS < spans[j].StartMS
		}
		return spans[i].DurMS > spans[j].DurMS
	})
	var stack []*span
	children := make(map[int][]*span)
	for i, s := range spans {
		s.ID = i + 1
		for len(stack) > 0 && stack[len(stack)-1].end()+containSlackMS < s.end() {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1].ID
			children[s.Parent] = append(children[s.Parent], s)
		}
		stack = append(stack, s)
	}
	for _, s := range spans {
		s.SelfMS = s.DurMS - covered(s, children[s.ID])
		if s.SelfMS < 0 {
			s.SelfMS = 0
		}
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent. Children of parallel work overlap; the union counts the
// overlapped stretch once.
func covered(parent *span, kids []*span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := k.StartMS, k.end()
		if a < parent.StartMS {
			a = parent.StartMS
		}
		if b > parent.end() {
			b = parent.end()
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, hi := 0.0, -1.0
	for _, v := range ivs {
		if v.a > hi {
			total += v.b - v.a
			hi = v.b
		} else if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// spanMetrics folds the assembled ops into the span.* per-layer metrics:
// for each named server span, the median over ops of the self time spent
// under that name; span.join_ms sums every "<memo>.join" (time parked on
// another caller's flight); span.unattributed_ms is what is left of the
// client-observed op after every named server span and the harness's own
// verify are taken out (wire, HTTP parsing, handler glue).
func spanMetrics(ops [][]*span) map[string]float64 {
	named := map[string]string{
		"admission":     "span.admission_ms",
		"backend.load":  "span.backend_load_ms",
		"store.read":    "span.store_read_ms",
		"dispatch":      "span.dispatch_ms",
		"trace.capture": "span.trace_capture_ms",
		"simulate":      "span.simulate_ms",
		"backend.store": "span.backend_store_ms",
		"store.write":   "span.store_write_ms",
		"cluster.run":   "span.cluster_run_ms",
	}
	per := make(map[string][]float64)
	for _, spans := range ops {
		sums := make(map[string]float64)
		seen := make(map[string]bool)
		var leaves []*span // everything that is attributed
		root := spans[0]
		for _, s := range spans {
			key := named[s.Name]
			if strings.HasSuffix(s.Name, ".join") {
				key = "span.join_ms"
			}
			if key != "" {
				sums[key] += s.SelfMS
				seen[key] = true
			}
			if key != "" || s.Name == "verify" {
				leaves = append(leaves, s)
			}
		}
		for k := range seen {
			per[k] = append(per[k], sums[k])
		}
		per["span.unattributed_ms"] = append(per["span.unattributed_ms"], root.DurMS-covered(root, leaves))
	}
	out := make(map[string]float64)
	for _, key := range named {
		out[key] = median(per[key])
	}
	out["span.join_ms"] = median(per["span.join_ms"])
	out["span.unattributed_ms"] = median(per["span.unattributed_ms"])
	return out
}

// traceFile is what a traced run leaves behind: every retained op's spans
// and the layer probes' spans, all with ids, parents and self times.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Ops      int     `json:"ops"`
	Spans    []*span `json:"spans"`
}

func writeTraceFile(path string, tf traceFile) error {
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
