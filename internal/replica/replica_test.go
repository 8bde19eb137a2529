package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/dispatch"
	"dcbench/internal/replica"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// testOptions keeps the per-key simulations small: the oracle is about
// replication, the workloads just need distinct keys.
func testOptions() report.Options {
	o := report.DefaultOptions()
	o.Instrs = 4_000
	o.Warmup = 2_000
	return o
}

// node is one in-process replica: a persistent store, a serving layer on
// a real listener, and a replicator over the other nodes.
type node struct {
	dir  string
	addr string
	ts   *httptest.Server
	st   *store.Store
	srv  *serve.Server
	repl *replica.Replicator
}

// startNode opens (or reopens) a node's store in dir and serves it on l,
// replicating against peers at the given factor. The anti-entropy loop is
// disabled — tests drive rounds explicitly so convergence is observable,
// not timed.
func startNode(t *testing.T, ctx context.Context, dir, addr string, l net.Listener, peers []string, factor int, opts report.Options) *node {
	t.Helper()
	st, err := store.OpenWith(dir, store.OpenOptions{Log: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := replica.New(replica.Options{
		Peers:    peers,
		Factor:   factor,
		Interval: -1, // rounds driven by hand
	}, st, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Options: opts, Store: st, Replica: repl, Logger: quietLog})
	repl.Start(ctx)
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: srv.Handler()}}
	ts.Start()
	return &node{dir: dir, addr: addr, ts: ts, st: st, srv: srv, repl: repl}
}

// startCluster starts n nodes on fresh loopback listeners, each
// replicating against all the others. Listeners come first: every node
// needs its peers' addresses at build time, and addresses only exist once
// the sockets do.
func startCluster(t *testing.T, ctx context.Context, n, factor int, opts report.Options) []*node {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = startNode(t, ctx, t.TempDir(), addrs[i], listeners[i], others(addrs, i), factor, opts)
	}
	return nodes
}

// others is addrs without its i-th entry: node i's peer list.
func others(addrs []string, i int) []string {
	out := append([]string(nil), addrs[:i]...)
	return append(out, addrs[i+1:]...)
}

// stop tears the node down the way a crash-then-restart sequence would:
// listener first (requests stop landing), then the replicator (queued
// pushes drain), then the server and store.
func (n *node) stop() {
	n.ts.Close()
	n.repl.Close()
	n.srv.Close()
	n.st.Close()
}

// listenOrReuse binds addr, retrying briefly — a restarted node must come
// back on the address its peers know it by.
func listenOrReuse(t *testing.T, addr string) net.Listener {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("could not rebind %s: %v", addr, lastErr)
	return nil
}

// postJob submits one counters job and returns the status and body.
func postJob(t *testing.T, addr string, key sweep.Key, warmup int64) (int, []byte) {
	t.Helper()
	return postKindJob(t, addr, store.KindCounters, key, warmup)
}

// postKindJob submits one job of the given kind.
func postKindJob(t *testing.T, addr, kind string, key any, warmup int64) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(struct {
		Kind   string          `json:"kind"`
		Key    json.RawMessage `json:"key"`
		Warmup int64           `json:"warmup,omitempty"`
	}{kind, raw, warmup})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// digestsEqual reports whether every node's shard digest vector matches
// the first's.
func digestsEqual(nodes []*node) bool {
	ref := nodes[0].st.ShardDigests()
	for _, n := range nodes[1:] {
		ds := n.st.ShardDigests()
		if len(ds) != len(ref) {
			return false
		}
		for i := range ds {
			if ds[i] != ref[i] {
				return false
			}
		}
	}
	return true
}

// converge drives anti-entropy rounds on every node until the digests
// agree (or the deadline passes).
func converge(t *testing.T, ctx context.Context, nodes []*node, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for !digestsEqual(nodes) {
		if time.Now().After(stop) {
			for _, n := range nodes {
				t.Logf("node %s: len=%d digests=%v stats=%+v", n.addr, n.st.Len(), n.st.ShardDigests(), n.repl.Stats())
			}
			t.Fatal("replicas did not converge before the deadline")
		}
		for _, n := range nodes {
			n.repl.RunAntiEntropy(ctx)
		}
	}
}

// TestConvergenceOracle is the acceptance oracle for the replication
// subsystem: three in-process replicas take a randomized interleaving of
// unique counters jobs, one node is killed and restarted (missing the
// writes that landed meanwhile), and the cluster must converge to
// byte-identical store contents — same digests, same record bytes, same
// /v1/jobs responses from every node — with the total simulation count
// exactly the number of unique keys. Runs under -race in CI.
func TestConvergenceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations across three replicas")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testOptions()
	cfgFP := opts.CoreConfig().Fingerprint()

	nodes := startCluster(t, ctx, 3, 3, opts)
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()

	// Unique keys from the characterization registry, each posted to one
	// randomly chosen node, concurrently — the randomized interleaving.
	registry := core.Registry()
	const phase1, phase2 = 9, 3
	if len(registry) < phase1+phase2 {
		t.Fatalf("registry has %d workloads, need %d", len(registry), phase1+phase2)
	}
	key := func(i int) sweep.Key {
		wl := registry[i]
		return sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: cfgFP, MaxInstrs: opts.Warmup + opts.Instrs}
	}
	rng := rand.New(rand.NewSource(7))
	targets := make([]int, phase1+phase2)
	for i := range targets {
		targets[i] = rng.Intn(3)
	}
	var wg sync.WaitGroup
	for i := 0; i < phase1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, body := postJob(t, nodes[targets[i]].addr, key(i), opts.Warmup); code != http.StatusOK {
				t.Errorf("job %d on node %d: status %d: %s", i, targets[i], code, body)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	converge(t, ctx, nodes, 30*time.Second)

	// Kill node 2. The writes that land meanwhile replicate only between
	// the survivors; the victim's disk keeps what it had.
	victim := nodes[2]
	victimWrites := victim.st.Stats().Writes
	victim.stop()
	for i := phase1; i < phase1+phase2; i++ {
		target := nodes[rng.Intn(2)] // survivors only
		if code, body := postJob(t, target.addr, key(i), opts.Warmup); code != http.StatusOK {
			t.Fatalf("job %d during outage: status %d: %s", i, code, body)
		}
	}

	// Restart it on the same address: anti-entropy must deliver exactly
	// the missed records, with zero re-simulation.
	l := listenOrReuse(t, victim.addr)
	nodes[2] = startNode(t, ctx, victim.dir, victim.addr, l, []string{nodes[0].addr, nodes[1].addr}, 3, opts)
	converge(t, ctx, nodes, 30*time.Second)

	total := phase1 + phase2
	for _, n := range nodes {
		if n.st.Len() != total {
			t.Fatalf("node %s holds %d records after convergence, want %d", n.addr, n.st.Len(), total)
		}
	}
	rs := nodes[2].repl.Stats()
	if rs.Repaired == 0 {
		t.Fatal("restarted node converged without adopting anything — the oracle is not exercising anti-entropy")
	}

	// Byte-identical contents: every record's persisted bytes match on
	// every node.
	for shard := 0; shard < nodes[0].st.ShardCount(); shard++ {
		addrsList, err := nodes[0].st.ShardAddrs(shard)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrsList {
			ref, ok, err := nodes[0].st.GetRecord(a)
			if err != nil || !ok {
				t.Fatalf("node 0 cannot export %s: ok=%v err=%v", a, ok, err)
			}
			for _, n := range nodes[1:] {
				got, ok, err := n.st.GetRecord(a)
				if err != nil || !ok || !bytes.Equal(ref, got) {
					t.Fatalf("record %s differs on node %s (ok=%v err=%v)", a, n.addr, ok, err)
				}
			}
		}
	}

	// Simulation count == unique keys: every key was simulated exactly
	// once across the cluster, counting the victim's first life.
	writes := victimWrites
	for _, n := range nodes {
		writes += n.st.Stats().Writes
	}
	if writes != int64(total) {
		t.Fatalf("cluster simulated %d times for %d unique keys", writes, total)
	}

	// Same /v1/* responses from every node, still with zero simulation:
	// each key answers byte-identically wherever it is asked.
	for i := 0; i < total; i++ {
		var ref []byte
		for ni, n := range nodes {
			code, body := postJob(t, n.addr, key(i), opts.Warmup)
			if code != http.StatusOK {
				t.Fatalf("warm job %d on node %d: status %d: %s", i, ni, code, body)
			}
			if ni == 0 {
				ref = body
			} else if !bytes.Equal(ref, body) {
				t.Fatalf("job %d answers different bytes on node %d", i, ni)
			}
		}
	}
	after := victimWrites
	for _, n := range nodes {
		after += n.st.Stats().Writes
	}
	if after != writes {
		t.Fatalf("serving warm keys re-simulated: writes %d -> %d", writes, after)
	}
	if got := fmt.Sprintf("%d", nodes[2].st.Stats().Writes); got != "0" {
		t.Fatalf("restarted node simulated %s times, want 0", got)
	}
}

// TestPushFanOut pins the write-through path alone: a record stored on
// one node shows up on its peers without any anti-entropy round.
func TestPushFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testOptions()

	nodes := startCluster(t, ctx, 3, 3, opts)
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()

	wl := core.Registry()[0]
	k := sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: opts.Warmup + opts.Instrs}
	if code, body := postJob(t, nodes[0].addr, k, opts.Warmup); code != http.StatusOK {
		t.Fatalf("job: status %d: %s", code, body)
	}
	pushTraces := func() (n int) {
		for _, td := range nodes[0].srv.Recorder().Traces(0) {
			if td.Name == "replica.push" {
				n++
			}
		}
		return n
	}
	// A peer installs the record before it answers the push, and the pusher
	// counts the push, then finishes its trace, only once the answer is
	// back: wait for all three.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if nodes[1].st.Len() == 1 && nodes[2].st.Len() == 1 &&
			nodes[0].repl.Stats().Pushed >= 2 && pushTraces() >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push fan-out did not land: peers hold %d and %d records, %d push traces; stats %+v",
				nodes[1].st.Len(), nodes[2].st.Len(), pushTraces(), nodes[0].repl.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The pushes landed as adoptions, not writes: peers never simulated.
	if w := nodes[1].st.Stats().Writes + nodes[2].st.Stats().Writes; w != 0 {
		t.Fatalf("peers simulated %d times for a pushed record", w)
	}
	// Peer calls carry the trace: each push's trace id resolves in the
	// receiving node's ring as that node's /v1/replica/records request.
	for _, td := range nodes[0].srv.Recorder().Traces(0) {
		if td.Name != "replica.push" {
			continue
		}
		found := false
		for _, n := range nodes[1:] {
			for _, got := range n.srv.Recorder().Traces(0) {
				if got.ID == td.ID && got.Name == "POST /v1/replica/records" {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("push trace %s does not resolve in any receiving node's ring", td.ID)
		}
	}
}

// TestReplicaSetMatchesDispatchRotation is the N > factor ownership test:
// five replicated workers at factor 2, so a record lives on exactly two of
// them — placed by the eager push alone (anti-entropy off) — and storeless
// front-ends rotating reads over -dispatch-replicas 2. Dispatch and
// replication rank by the same record address, so every rotated read finds
// a copy: the cluster simulates each key once however often and through
// whichever front-end it is read.
func TestReplicaSetMatchesDispatchRotation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations across five replicas")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testOptions()
	opts.Scale = 0.004
	nodes := startCluster(t, ctx, 5, 2, opts)
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	workers := make([]string, len(nodes))
	for i, n := range nodes {
		workers[i] = n.addr
	}
	frontEnd := func() *dispatch.RemoteBackend {
		b, err := dispatch.New(dispatch.Options{Workers: workers, Replicas: 2},
			opts.Warmup, nil, quietLog)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The single-process oracle: a storeless server's own answers.
	oracle := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer oracle.Close()
	ots := httptest.NewServer(oracle.Handler())
	defer ots.Close()
	oracleAddr := ots.Listener.Addr().String()

	const K = 6
	registry := core.Registry()
	sweepKeys := make([]sweep.Key, K)
	statsKeys := make([]workloads.StatsKey, K)
	want := map[any][]byte{}
	for i := 0; i < K; i++ {
		wl := registry[i]
		sweepKeys[i] = sweep.Key{Name: wl.Name, Profile: wl.Profile,
			ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: opts.Warmup + opts.Instrs}
		statsKeys[i] = workloads.StatsKey{Workload: "Sort", Slaves: i + 1, Scale: opts.Scale, Seed: opts.Seed}
		code, body := postKindJob(t, oracleAddr, store.KindCounters, sweepKeys[i], opts.Warmup)
		if code != http.StatusOK {
			t.Fatalf("oracle counters job %d: status %d: %s", i, code, body)
		}
		want[sweepKeys[i]] = body
		if code, body = postKindJob(t, oracleAddr, store.KindCluster, statsKeys[i], 0); code != http.StatusOK {
			t.Fatalf("oracle cluster job %d: status %d: %s", i, code, body)
		}
		want[statsKeys[i]] = body
	}
	// readAll resolves every key `times` times in a row through fe (so a
	// rotating front-end asks each of the key's replicas) and checks every
	// answer against the oracle's bytes.
	readAll := func(fe *dispatch.RemoteBackend, pass string, times int) {
		t.Helper()
		for i := 0; i < K; i++ {
			for n := 0; n < times; n++ {
				c, ok := fe.Load(ctx, sweepKeys[i])
				if !ok {
					t.Fatalf("%s: counters key %d missed", pass, i)
				}
				if got, err := store.Counters.Encode(sweepKeys[i], c); err != nil || !bytes.Equal(got, want[sweepKeys[i]]) {
					t.Fatalf("%s: counters key %d differs from the single-process oracle (err=%v)", pass, i, err)
				}
			}
			for n := 0; n < times; n++ {
				st, ok := fe.LoadStats(ctx, statsKeys[i])
				if !ok {
					t.Fatalf("%s: cluster key %d missed", pass, i)
				}
				if got, err := store.Cluster.Encode(statsKeys[i], st); err != nil || !bytes.Equal(got, want[statsKeys[i]]) {
					t.Fatalf("%s: cluster key %d differs from the single-process oracle (err=%v)", pass, i, err)
				}
			}
		}
	}
	clusterTotals := func() (writes, adopted int64) {
		for _, n := range nodes {
			s := n.st.Stats()
			writes, adopted = writes+s.Writes, adopted+s.Adopted
		}
		return writes, adopted
	}

	cold := frontEnd()
	readAll(cold, "cold pass", 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, adopted := clusterTotals(); adopted == 2*K {
			break
		}
		if time.Now().After(deadline) {
			w, a := clusterTotals()
			t.Fatalf("eager pushes did not settle: cluster writes=%d adopted=%d, want %d/%d", w, a, 2*K, 2*K)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A second, fresh front-end reads every key four more times in a row;
	// its rotation cursor advances per read, so both replicas of every key
	// are asked, twice each.
	warm := frontEnd()
	readAll(warm, "warm pass", 4)
	if writes, adopted := clusterTotals(); writes != 2*K || adopted != 2*K {
		t.Fatalf("cluster writes=%d adopted=%d after rotated reads, want %d/%d: a rotated read reached a worker holding no copy and re-simulated",
			writes, adopted, 2*K, 2*K)
	}
	var hits int64
	for _, n := range nodes {
		hits += n.st.Stats().Hits
	}
	if hits < 2*K {
		t.Fatalf("rotated reads produced %d store hits, want >= %d: the second replica of each key was never asked", hits, 2*K)
	}
	for _, fe := range []*dispatch.RemoteBackend{cold, warm} {
		if d := fe.Stats(); d.Fallbacks != 0 || d.Errors != 0 {
			t.Fatalf("front-end dispatch stats = %+v, want no fallbacks or errors", d)
		}
	}
}
