// Package replica keeps a cluster of dcserved result stores coherent: any
// node can serve any warm key locally, and losing a key's rendezvous owner
// costs nothing that was already simulated.
//
// Two mechanisms, layered:
//
//   - Write-through fan-out: after a node stores a freshly simulated
//     record, the same checksummed, kind-tagged record bytes the store
//     persists (and the dispatch layer already ships) are pushed to the
//     record's next R−1 rendezvous-ranked peers via POST
//     /v1/replica/records — asynchronously, through a bounded queue with
//     retries, so replication latency never sits on the simulation path
//     and a slow peer sheds pushes instead of backing the cluster up.
//   - Background anti-entropy: every interval, the node fetches each
//     peer's per-shard index digests (GET /v1/replica/digest — a digest
//     over sorted record addresses, which identifies contents because
//     records are deterministic), pulls the address lists of divergent
//     shards only, and adopts the records it lacks. A node that restarted
//     empty, missed pushes while partitioned, or dropped queue overflow
//     converges back to the union without re-simulating anything.
//
// Both paths end in store.AdoptRecord: the incoming bytes are
// checksum-verified, installed verbatim under their content address
// (byte-identical convergence by construction), idempotent on repeats,
// and subject to the store's byte budget. Adopted records are
// never re-pushed — fan-out starts only at the node that simulated the
// record — so the push graph cannot loop.
//
// The replica set of a record is the top -replication-factor nodes of
// peer.Rank over the record's content address — the same order the
// dispatch layer walks (and -dispatch-replicas rotates reads over), so a
// front-end looks for a key on the nodes its record was pushed to. A
// node's push targets are its rank over the *other* nodes, which is that
// cluster-wide order minus itself; this holds only when -workers and
// -replicas spell each node's address identically.
//
// The replicator sees fresh writes through the store's write hook
// (store.OnWrite), which hands it the encoded record and its address, and
// surfaces its counters through Stats — serve.Config.Replica carries them
// into /healthz and /metrics.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcbench/internal/obs"
	"dcbench/internal/peer"
	"dcbench/internal/store"
)

// Defaults for Options' zero fields, and the push path's fixed tuning.
const (
	// defaultFactor is the total number of copies of each fresh record,
	// the writing node included: 2 survives any single node loss.
	defaultFactor = 2
	// defaultInterval paces the background anti-entropy loop.
	defaultInterval = 30 * time.Second
	// defaultQueueLen bounds the async push queue; overflow is counted
	// and dropped (anti-entropy repairs it later) rather than blocking
	// the simulation path.
	defaultQueueLen = 256
	// defaultRetries is how many extra attempts a failed push gets.
	defaultRetries = 2
	// defaultTimeout bounds each peer HTTP call.
	defaultTimeout = 10 * time.Second
)

// pushWorkers is the sender fan-out draining the push queue.
const pushWorkers = 2

// retryBackoff spaces push retry attempts (linear: attempt × backoff).
const retryBackoff = 200 * time.Millisecond

// Options configures a Replicator.
type Options struct {
	// Peers are the other replicas' service addresses (host:port); empty
	// means replication is off and the caller should not build a
	// Replicator at all.
	Peers []string
	// Factor is the total copy count per fresh record, this node
	// included; fan-out pushes to the Factor−1 top rendezvous-ranked
	// peers. Clamped to the cluster size.
	Factor int
	// Interval paces the background anti-entropy loop; <0 disables the
	// loop (rounds can still be driven explicitly via RunAntiEntropy).
	Interval time.Duration
	// APIKey, when non-empty, authenticates every peer call as
	// `Authorization: Bearer <APIKey>` — the same service key the
	// dispatch layer presents (-dispatch-api-key), so one key admits a
	// node to both planes of a keyed cluster.
	APIKey string
}

// RegisterFlags declares dcserved's replication flags on fs, defaulted
// from *o and written back on Parse. The service key is not a flag here:
// dcserved reuses -dispatch-api-key, which already names the node's
// credential on its peers.
func RegisterFlags(fs *flag.FlagSet, o *Options) {
	if o.Factor == 0 {
		o.Factor = defaultFactor
	}
	if o.Interval == 0 {
		o.Interval = defaultInterval
	}
	fs.Var((*peer.List)(&o.Peers), "replicas", "comma-separated replica peer addresses (host:port,...) to fan fresh store records out to; empty = replication off")
	fs.IntVar(&o.Factor, "replication-factor", o.Factor, "total copies of each fresh record across the cluster, this node included")
	fs.DurationVar(&o.Interval, "anti-entropy-interval", o.Interval, "how often to exchange store digests with replica peers and pull missing records; <0 disables the background loop")
}

// DigestResponse is the body of GET /v1/replica/digest: every shard's
// digest plus the node's store totals.
type DigestResponse struct {
	Shards  []store.ShardDigest `json:"shards"`
	Records int64               `json:"records"`
	Bytes   int64               `json:"bytes"`
}

// AddrsResponse is the body of GET /v1/replica/digest?shard=n: one
// shard's sorted record addresses.
type AddrsResponse struct {
	Shard int      `json:"shard"`
	Addrs []string `json:"addrs"`
}

// pushItem is one queued fan-out push.
type pushItem struct {
	peer string
	addr string
	data []byte
}

// Replicator runs one node's side of store replication. Build with New,
// start the background workers with Start, stop (draining queued pushes)
// with Close. Safe for concurrent use.
type Replicator struct {
	opts   Options
	st     *store.Store
	client peer.Client
	log    *slog.Logger
	rec    atomic.Pointer[obs.Recorder]

	qmu      sync.RWMutex // guards closed vs enqueue's channel send
	closed   bool
	queue    chan pushItem
	wg       sync.WaitGroup
	stopLoop context.CancelFunc // ends the anti-entropy loop on Close

	pushed       atomic.Int64
	pushErrors   atomic.Int64
	dropped      atomic.Int64
	digestRounds atomic.Int64
	pulled       atomic.Int64
	pullErrors   atomic.Int64
	repaired     atomic.Int64

	clusterRecords atomic.Int64 // last digest round's cluster-wide sums
	clusterBytes   atomic.Int64
}

// New builds a Replicator for st over the given peer set and registers its
// fan-out as st's write hook: from here on every record st writes is
// queued for the record's replica peers (and dropped, counted, once the
// queue is full — Start launches the senders that drain it).
func New(opts Options, st *store.Store, log *slog.Logger) (*Replicator, error) {
	if st == nil {
		return nil, errors.New("replica: replication requires a result store (-store)")
	}
	if len(opts.Peers) == 0 {
		return nil, errors.New("replica: no peers configured")
	}
	if opts.Factor <= 0 {
		opts.Factor = defaultFactor
	}
	if opts.Factor > len(opts.Peers)+1 {
		opts.Factor = len(opts.Peers) + 1
	}
	if opts.Interval == 0 {
		opts.Interval = defaultInterval
	}
	if log == nil {
		log = slog.Default()
	}
	r := &Replicator{
		opts:   opts,
		st:     st,
		client: peer.Client{APIKey: opts.APIKey, Timeout: defaultTimeout},
		log:    log,
		queue:  make(chan pushItem, defaultQueueLen),
	}
	st.OnWrite(r.enqueue)
	return r, nil
}

// SetRecorder installs the trace ring push and anti-entropy spans are
// recorded into — typically the serving layer's, so replication phases
// show up under /debug/traces beside request timelines.
func (r *Replicator) SetRecorder(rec *obs.Recorder) { r.rec.Store(rec) }

// Start launches the push senders and, when the interval allows, the
// background anti-entropy loop. Both run until ctx ends (the senders
// additionally drain the queue on Close).
func (r *Replicator) Start(ctx context.Context) {
	for i := 0; i < pushWorkers; i++ {
		r.wg.Add(1)
		go r.sender(ctx)
	}
	if r.opts.Interval > 0 {
		// The loop gets its own cancel, fired by Close: a caller holding a
		// long-lived ctx (dcbench's background run) can still stop cleanly,
		// and the senders keep the caller's ctx so Close drains the queue
		// instead of dropping it.
		lctx, cancel := context.WithCancel(ctx)
		r.stopLoop = cancel
		r.wg.Add(1)
		go r.antiEntropyLoop(lctx)
	}
}

// Close stops accepting pushes, drains the queue through the senders and
// waits for the background workers — so a short-lived process (dcbench)
// does not exit with replication still sitting in the queue.
func (r *Replicator) Close() {
	r.qmu.Lock()
	if !r.closed {
		r.closed = true
		close(r.queue)
	}
	r.qmu.Unlock()
	if r.stopLoop != nil {
		r.stopLoop()
	}
	r.wg.Wait()
}

// Stats is the replication block of /healthz: the write-through fan-out's
// traffic (pushed/push_errors/dropped/queue_depth), the anti-entropy loop's
// (digest_rounds/pulled/pull_errors/repaired), and the aggregated
// cluster-wide gauge the last digest exchange observed (cluster_records/
// cluster_bytes — every peer's record count and bytes summed with this
// node's own, the cluster view the per-process budgets lack). Dropped > 0
// means the push queue overflowed and anti-entropy is carrying the slack;
// Repaired counts records a digest round actually pulled in, so a steady
// nonzero rate flags a peer that keeps diverging. Each field declares the
// /metrics family it is exported under.
type Stats struct {
	Peers          int64 `json:"peers" metric:"dcserved_replica_peers,gauge" help:"Configured replica peers (-replicas)."`
	Factor         int64 `json:"factor" metric:"dcserved_replica_factor,gauge" help:"Total copies of each fresh record, this node included (-replication-factor)."`
	Pushed         int64 `json:"pushed" metric:"dcserved_replica_pushed_total,counter" help:"Fresh records delivered to a peer by write-through fan-out."`
	PushErrors     int64 `json:"push_errors" metric:"dcserved_replica_push_errors_total,counter" help:"Fan-out pushes that exhausted their retries."`
	Dropped        int64 `json:"dropped" metric:"dcserved_replica_dropped_total,counter" help:"Fan-out pushes dropped on queue overflow or shutdown (anti-entropy repairs them)."`
	QueueDepth     int64 `json:"queue_depth" metric:"dcserved_replica_queue_depth,gauge" help:"Fan-out pushes currently queued."`
	DigestRounds   int64 `json:"digest_rounds" metric:"dcserved_replica_digest_rounds_total,counter" help:"Anti-entropy digest exchanges run."`
	Pulled         int64 `json:"pulled" metric:"dcserved_replica_pulled_total,counter" help:"Records fetched from peers during anti-entropy."`
	PullErrors     int64 `json:"pull_errors" metric:"dcserved_replica_pull_errors_total,counter" help:"Failed peer digest/record fetches."`
	Repaired       int64 `json:"repaired" metric:"dcserved_replica_repaired_total,counter" help:"Divergent records adopted during anti-entropy."`
	ClusterRecords int64 `json:"cluster_records" metric:"dcserved_replica_cluster_records,gauge" help:"Records across the cluster at the last digest round (sum over peers, copies counted)."`
	ClusterBytes   int64 `json:"cluster_bytes" metric:"dcserved_replica_cluster_bytes,gauge" help:"Record bytes across the cluster at the last digest round."`
}

// Stats snapshots the replication counters.
func (r *Replicator) Stats() Stats {
	return Stats{
		Peers:          int64(len(r.opts.Peers)),
		Factor:         int64(r.opts.Factor),
		Pushed:         r.pushed.Load(),
		PushErrors:     r.pushErrors.Load(),
		Dropped:        r.dropped.Load(),
		QueueDepth:     int64(len(r.queue)),
		DigestRounds:   r.digestRounds.Load(),
		Pulled:         r.pulled.Load(),
		PullErrors:     r.pullErrors.Load(),
		Repaired:       r.repaired.Load(),
		ClusterRecords: r.clusterRecords.Load(),
		ClusterBytes:   r.clusterBytes.Load(),
	}
}

// --- write-through fan-out ---

// enqueue is the store's write hook: it fans one freshly written record
// out to its Factor−1 top rendezvous-ranked peers. Queue overflow is
// counted and dropped — the record is already durable locally and
// anti-entropy converges the peers later — never blocked on. Adopted
// records never reach the hook, so fan-out starts only at the node that
// computed the record.
func (r *Replicator) enqueue(addr string, data []byte) {
	for _, p := range peer.Rank(r.opts.Peers, addr)[:r.opts.Factor-1] {
		r.qmu.RLock()
		if r.closed {
			r.qmu.RUnlock()
			return
		}
		select {
		case r.queue <- pushItem{peer: p, addr: addr, data: data}:
		default:
			r.dropped.Add(1)
		}
		r.qmu.RUnlock()
	}
}

// sender drains the push queue until it closes; a cancelled ctx stops
// sending but keeps draining, so Close never hangs on a dead peer.
func (r *Replicator) sender(ctx context.Context) {
	defer r.wg.Done()
	for it := range r.queue {
		if ctx.Err() != nil {
			r.dropped.Add(1)
			continue
		}
		r.push(ctx, it)
	}
}

// push delivers one queued record to one peer, with bounded retries.
func (r *Replicator) push(ctx context.Context, it pushItem) {
	if tr := r.startTrace("replica.push"); tr != nil {
		defer tr.Finish()
		ctx = obs.With(ctx, tr)
	}
	sp := obs.Start(ctx, "replica.push", "peer", it.peer, "addr", it.addr)
	var err error
	for attempt := 0; attempt <= defaultRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				r.pushErrors.Add(1)
				sp.End("outcome", "cancelled")
				return
			case <-time.After(time.Duration(attempt) * retryBackoff):
			}
		}
		if err = r.postRecord(ctx, it.peer, it.data); err == nil {
			r.pushed.Add(1)
			sp.End("outcome", "ok")
			return
		}
	}
	r.pushErrors.Add(1)
	sp.End("outcome", "error")
	r.log.Warn("replica push failed", "peer", it.peer, "addr", it.addr, "err", err)
}

// postRecord POSTs one record's bytes to a peer's replica endpoint.
func (r *Replicator) postRecord(ctx context.Context, peerAddr string, data []byte) error {
	status, _, _, err := r.client.Do(ctx, http.MethodPost, "http://"+peerAddr+"/v1/replica/records", data)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent && status != http.StatusOK {
		return fmt.Errorf("peer answered %d", status)
	}
	return nil
}

// --- anti-entropy ---

// antiEntropyLoop runs RunAntiEntropy every interval until ctx ends.
func (r *Replicator) antiEntropyLoop(ctx context.Context) {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.RunAntiEntropy(ctx)
		}
	}
}

// RunAntiEntropy runs one digest-exchange round against every peer:
// fetch its per-shard digests, pull the address lists of shards whose
// digest differs from ours (a digest hashes the shard's sorted address
// set, so equal digests mean equal sets), and adopt every record we lack. It also refreshes the
// cluster-wide records/bytes gauges from the digest totals. A dead peer
// costs one counted error and the round moves on; the next round retries.
// A listed address that is not a record address (16 lowercase hex digits)
// is a counted error too, and is never requested.
func (r *Replicator) RunAntiEntropy(ctx context.Context) {
	if tr := r.startTrace("replica.anti-entropy"); tr != nil {
		defer tr.Finish()
		ctx = obs.With(ctx, tr)
	}
	r.digestRounds.Add(1)
	own := r.st.ShardDigests()
	var ownAddrs map[string]bool // built on the first divergent shard
	clusterRecords := int64(r.st.Len())
	clusterBytes := r.st.Bytes()
	for _, peer := range r.opts.Peers {
		if ctx.Err() != nil {
			return
		}
		sp := obs.Start(ctx, "replica.digest", "peer", peer)
		var dr DigestResponse
		err := r.getJSON(ctx, "http://"+peer+"/v1/replica/digest", &dr)
		sp.End("ok", strconv.FormatBool(err == nil))
		if err != nil {
			r.pullErrors.Add(1)
			r.log.Warn("replica digest fetch failed", "peer", peer, "err", err)
			continue
		}
		clusterRecords += dr.Records
		clusterBytes += dr.Bytes
		for _, pd := range dr.Shards {
			if pd.Count == 0 {
				continue
			}
			if pd.Shard >= 0 && pd.Shard < len(own) && own[pd.Shard].Digest == pd.Digest {
				continue
			}
			if ownAddrs == nil {
				ownAddrs = r.ownAddrSet()
			}
			var ar AddrsResponse
			if err := r.getJSON(ctx, fmt.Sprintf("http://%s/v1/replica/digest?shard=%d", peer, pd.Shard), &ar); err != nil {
				r.pullErrors.Add(1)
				continue
			}
			for _, addr := range ar.Addrs {
				if ownAddrs[addr] {
					continue
				}
				if len(addr) != 16 || strings.Trim(addr, "0123456789abcdef") != "" {
					r.pullErrors.Add(1) // not a record address: never spliced into a URL
					continue
				}
				if r.pullRecord(ctx, peer, addr) {
					ownAddrs[addr] = true
				}
			}
		}
	}
	r.clusterRecords.Store(clusterRecords)
	r.clusterBytes.Store(clusterBytes)
}

// ownAddrSet snapshots every record address this store holds.
func (r *Replicator) ownAddrSet() map[string]bool {
	out := make(map[string]bool)
	for i := 0; i < r.st.ShardCount(); i++ {
		addrs, _ := r.st.ShardAddrs(i)
		for _, a := range addrs {
			out[a] = true
		}
	}
	return out
}

// pullRecord fetches one record from a peer and adopts it; it reports
// whether the address is now present locally.
func (r *Replicator) pullRecord(ctx context.Context, peer, addr string) bool {
	sp := obs.Start(ctx, "replica.pull", "peer", peer, "addr", addr)
	data, err := r.getRaw(ctx, "http://"+peer+"/v1/replica/records/"+addr)
	if err != nil {
		sp.End("outcome", "error")
		r.pullErrors.Add(1)
		r.log.Warn("replica pull failed", "peer", peer, "addr", addr, "err", err)
		return false
	}
	adopted, err := r.st.AdoptRecord(data)
	if err != nil {
		sp.End("outcome", "corrupt")
		r.pullErrors.Add(1)
		r.log.Warn("replica pull adopted nothing", "peer", peer, "addr", addr, "err", err)
		return false
	}
	r.pulled.Add(1)
	if adopted {
		r.repaired.Add(1)
	}
	sp.End("outcome", "ok")
	return true
}

// getJSON fetches and decodes one peer JSON response.
func (r *Replicator) getJSON(ctx context.Context, url string, into any) error {
	data, err := r.getRaw(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// getRaw fetches one peer URL's body.
func (r *Replicator) getRaw(ctx context.Context, url string) ([]byte, error) {
	status, _, data, err := r.client.Do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("peer answered %d", status)
	}
	return data, nil
}

// startTrace opens a trace in the installed recorder, if any.
func (r *Replicator) startTrace(name string) *obs.Trace {
	if rec := r.rec.Load(); rec != nil {
		return rec.StartTrace(name, "")
	}
	return nil
}
