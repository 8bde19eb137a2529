package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// tripwire is a backend no job-request decode may ever reach: buildRunner
// validates, it does not execute.
type tripwire struct{ touched atomic.Int64 }

func (b *tripwire) Load(context.Context, sweep.Key) (*uarch.Counters, bool) {
	b.touched.Add(1)
	return nil, false
}
func (b *tripwire) Store(context.Context, sweep.Key, *uarch.Counters) { b.touched.Add(1) }
func (b *tripwire) LoadStats(context.Context, workloads.StatsKey) (*workloads.Stats, bool) {
	b.touched.Add(1)
	return nil, false
}
func (b *tripwire) StoreStats(context.Context, workloads.StatsKey, *workloads.Stats) {
	b.touched.Add(1)
}

// FuzzJobRequest feeds arbitrary bytes through the POST /v1/jobs decode
// path (the JSON decode handleJobs runs, then buildRunner): nothing
// panics, every refusal is a 4xx with one of the stable codes, a request
// without a known kind — the retired /v1/sweep shape included — is a
// bad_request, and no input executes anything.
func FuzzJobRequest(f *testing.F) {
	opts := report.DefaultOptions()
	trip := &tripwire{}
	s := New(Config{Options: opts, Backend: trip, Cluster: trip,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()

	wl, err := core.ByName("Grep")
	if err != nil {
		f.Fatal(err)
	}
	counterKey, err := json.Marshal(sweep.Key{Name: wl.Name, Profile: wl.Profile,
		ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: opts.Warmup + opts.Instrs})
	if err != nil {
		f.Fatal(err)
	}
	clusterKey, err := json.Marshal(workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []JobRequest{
		{Kind: store.KindCounters, Key: counterKey, Warmup: opts.Warmup},
		{Kind: store.KindCluster, Key: clusterKey},
	} {
		if _, je := s.buildRunner(req); je != nil {
			f.Fatalf("golden %s request refused: %d %s %s", req.Kind, je.status, je.code, je.msg)
		}
		seed, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	// The retired /v1/sweep body: a bare key and warmup, no kind.
	f.Add([]byte(`{"key":` + string(counterKey) + `,"warmup":250000}`))
	f.Add([]byte(`{"kind":"counters","key":{"Name":"Grep","MaxInstrs":2000000000}}`))
	f.Add([]byte(`{"kind":"cluster","key":{"Workload":"Sort","Slaves":-1,"Scale":1e308}}`))
	f.Add([]byte(`{"kind":"cluster","key":[1,2,3]}`))
	f.Add([]byte("not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&req) != nil {
			return // handleJobs answers 400 bad_request before buildRunner
		}
		run, je := s.buildRunner(req)
		known := req.Kind == store.KindCounters || req.Kind == store.KindCluster
		switch {
		case (run == nil) == (je == nil):
			t.Fatalf("buildRunner returned run=%v err=%v, want exactly one", run, je)
		case je != nil:
			if je.status < 400 || je.status > 499 {
				t.Fatalf("refusal status %d is not a 4xx (%s: %s)", je.status, je.code, je.msg)
			}
			if je.code != codeBadRequest && je.code != codeNotFound && je.code != codeConflict {
				t.Fatalf("refusal code %q is not one of the job decoder's stable codes", je.code)
			}
			if !known && (je.status != http.StatusBadRequest || je.code != codeBadRequest) {
				t.Fatalf("kind %q refused %d %s, want 400 bad_request", req.Kind, je.status, je.code)
			}
		case !known || run.kind != req.Kind:
			t.Fatalf("kind %q produced a %q runner", req.Kind, run.kind)
		}
		if n := trip.touched.Load(); n != 0 {
			t.Fatalf("decoding a job request touched the backend %d times", n)
		}
	})
}
