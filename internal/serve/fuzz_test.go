package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
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
	countersRaw, err := json.Marshal(sweep.Key{Name: wl.Name, Profile: wl.Profile,
		ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: opts.Warmup + opts.Instrs})
	if err != nil {
		f.Fatal(err)
	}
	clusterRaw, err := json.Marshal(workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []JobRequest{
		{Kind: store.KindCounters, Key: countersRaw, Warmup: opts.Warmup},
		{Kind: store.KindCluster, Key: clusterRaw},
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
	f.Add([]byte(`{"key":` + string(countersRaw) + `,"warmup":250000}`))
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

// FuzzCounterJobExecutes runs every counters job the decoder accepts over a
// fuzzed profile, capped at 2 000 instructions: nothing panics, no accepted
// job answers 5xx, and no execution allocates more than 16 MiB — a job key
// must not size the worker's memory.
func FuzzCounterJobExecutes(f *testing.F) {
	const (
		instrs   = 2_000
		maxAlloc = 16 << 20
	)
	opts := report.DefaultOptions()
	s := New(Config{Options: opts, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	registry := core.Registry()
	add := func(w uint8, p memtrace.Profile) {
		f.Add(w, p.Seed, p.MaxInstrs, p.CodeKB, p.HotCodeKB, p.KernelKB, p.BlockLen, p.ColdJumpP,
			p.FrameworkEvery, p.FrameworkInstrs, p.FrameworkJump, p.GCEvery, p.GCInstrs, p.HeapMB,
			p.ALUPerMem, p.FPUShare, p.NSrc2P, p.NSrc3P, p.ChainProb)
	}
	for i, w := range registry {
		add(uint8(i), w.Profile)
	}
	for _, edit := range []func(*memtrace.Profile){
		func(p *memtrace.Profile) { p.CodeKB = -1 },
		func(p *memtrace.Profile) { p.CodeKB = 1 << 20 },
		func(p *memtrace.Profile) { p.KernelKB = 1 << 20 },
		func(p *memtrace.Profile) { p.CodeKB, p.HotCodeKB, p.KernelKB = 1<<14, 1<<14, 1<<14 },
		func(p *memtrace.Profile) { p.BlockLen, p.FrameworkJump, p.GCEvery = -1, -8, -5 },
		func(p *memtrace.Profile) { p.FPUShare, p.NSrc2P = math.NaN(), -0.25 },
		func(p *memtrace.Profile) { p.MaxInstrs, p.HeapMB = -1, -1 },
	} {
		p := registry[0].Profile
		edit(&p)
		add(0, p)
	}

	fp := opts.CoreConfig().Fingerprint()
	f.Fuzz(func(t *testing.T, w uint8, seed uint64, maxInstrs int64, codeKB, hotCodeKB, kernelKB, blockLen int,
		coldJumpP float64, frameworkEvery, frameworkInstrs, frameworkJump int, gcEvery int64, gcInstrs, heapMB,
		aluPerMem int, fpuShare, nSrc2P, nSrc3P, chainProb float64) {
		key := sweep.Key{
			Name: registry[int(w)%len(registry)].Name,
			Profile: memtrace.Profile{
				Seed: seed, MaxInstrs: maxInstrs,
				CodeKB: codeKB, HotCodeKB: hotCodeKB, KernelKB: kernelKB, BlockLen: blockLen, ColdJumpP: coldJumpP,
				FrameworkEvery: frameworkEvery, FrameworkInstrs: frameworkInstrs, FrameworkJump: frameworkJump,
				GCEvery: gcEvery, GCInstrs: gcInstrs, HeapMB: heapMB,
				ALUPerMem: aluPerMem, FPUShare: fpuShare, NSrc2P: nSrc2P, NSrc3P: nSrc3P, ChainProb: chainProb,
			},
			ConfigFP:  fp,
			MaxInstrs: instrs,
		}
		run, je := s.counterRunner(key, opts.Warmup)
		if je != nil {
			if je.status != http.StatusBadRequest && je.status != http.StatusNotFound {
				t.Fatalf("refusal %d %s: %s", je.status, je.code, je.msg)
			}
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, je = run.exec(context.Background())
		runtime.ReadMemStats(&after)
		if je != nil {
			t.Fatalf("accepted job answered %d %s: %s (profile %+v)", je.status, je.code, je.msg, key.Profile)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxAlloc {
			t.Fatalf("one %d-instruction job allocated %d MiB, more than %d (profile %+v)",
				instrs, alloc>>20, maxAlloc>>20, key.Profile)
		}
	})
}

// FuzzReplicaPush posts arbitrary bodies to POST /v1/replica/records on a
// node holding one record: nothing panics, a body that is not a valid
// checksummed record answers 400 and leaves the store exactly as it was,
// and a valid one answers 204 and lands verbatim (or was already there).
func FuzzReplicaPush(f *testing.F) {
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Options: report.DefaultOptions(), Store: st,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	h := s.Handler()

	wl, err := core.ByName("Sort")
	if err != nil {
		f.Fatal(err)
	}
	key := sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: 7, MaxInstrs: 1000}
	if err := st.Put(key, &uarch.Counters{Cycles: 42, Instructions: 1000}); err != nil {
		f.Fatal(err)
	}
	held, err := store.Counters.Encode(key, &uarch.Counters{Cycles: 42, Instructions: 1000})
	if err != nil {
		f.Fatal(err)
	}
	key.Profile.Seed++
	fresh, err := store.Counters.Encode(key, &uarch.Counters{Cycles: 9, Instructions: 8})
	if err != nil {
		f.Fatal(err)
	}
	cluster, err := store.Cluster.Encode(workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: 0.01, Seed: 1},
		&workloads.Stats{Jobs: 3})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{held, fresh, cluster, held[:len(held)/2],
		bytes.Replace(fresh, []byte(`"schema":2`), []byte(`"schema":1`), 1),
		bytes.Replace(fresh, []byte(`"Cycles":9`), []byte(`"Cycles":8`), 1),
		[]byte(`{}`), []byte(`null`), []byte(`[]`), nil} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		before := storeState(t, st)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replica/records", bytes.NewReader(data)))
		after := storeState(t, st)
		if !checksummedRecord(data) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("invalid record answered %d, want 400", rec.Code)
			}
			if !reflect.DeepEqual(after, before) {
				t.Fatal("an invalid record changed the store")
			}
			return
		}
		if rec.Code != http.StatusNoContent {
			t.Fatalf("valid record answered %d, want 204: %s", rec.Code, rec.Body)
		}
		switch added := after.newAddrs(before); len(added) {
		case 0: // already held: adoption is idempotent
			if !reflect.DeepEqual(after, before) {
				t.Fatal("a duplicate push changed the store")
			}
		case 1:
			if got, ok, err := st.GetRecord(added[0]); err != nil || !ok || !bytes.Equal(got, data) {
				t.Fatalf("adopted record at %s is not the pushed bytes (ok=%v err=%v)", added[0], ok, err)
			}
		default:
			t.Fatalf("one push added %d records", len(added))
		}
	})
}

// replicaState is what a push may change: the shard digests and every
// record address.
type replicaState struct {
	digests []store.ShardDigest
	addrs   map[string]bool
}

func storeState(t *testing.T, st *store.Store) replicaState {
	rs := replicaState{digests: st.ShardDigests(), addrs: map[string]bool{}}
	for i := range st.ShardCount() {
		addrs, err := st.ShardAddrs(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			rs.addrs[a] = true
		}
	}
	return rs
}

func (rs replicaState) newAddrs(before replicaState) []string {
	var added []string
	for a := range rs.addrs {
		if !before.addrs[a] {
			added = append(added, a)
		}
	}
	return added
}

// checksummedRecord restates the record contract independently of the
// store's codec: the current schema, and an fnv64a over (schema, kind,
// key, payload) matching the embedded sum.
func checksummedRecord(data []byte) bool {
	var rec struct {
		Schema       int
		Kind, Sum    string
		Key, Payload json.RawMessage
	}
	if json.Unmarshal(data, &rec) != nil || rec.Schema != store.SchemaVersion {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s", store.SchemaVersion, rec.Kind, rec.Key, rec.Payload)
	return rec.Sum == fmt.Sprintf("%016x", h.Sum64())
}

// TestQueryGetMatchesParseQuery: the map-free scan reads the same value
// as url.ParseQuery(raw).Get, including where ParseQuery's less obvious
// rules decide: escaped keys and values, repeats, pairs dropped for a ';'
// or a bad escape.
func TestQueryGetMatchesParseQuery(t *testing.T) {
	for _, raw := range []string{
		"", "format=csv", "format=json", "format", "format=", "=csv", "&&format=csv&",
		"form%61t=csv", "format=c%73v", "format=csv+x", "format+=csv",
		"format=xml&format=csv", "a=1&format=csv&format=json",
		"a;b&format=csv", "format=csv;x&format=json", "format;=csv",
		"format=%zz&format=csv", "form%zzat=json&format=csv", "format=%&format=json",
		"formats=csv", "xformat=csv", "FORMAT=csv", "format=csv=json",
	} {
		want, _ := url.ParseQuery(raw)
		if got := queryGet(raw, "format"); got != want.Get("format") {
			t.Errorf("queryGet(%q) = %q, url.ParseQuery says %q", raw, got, want.Get("format"))
		}
	}
}
