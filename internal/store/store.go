// Package store is a persistent, content-addressed result store for
// characterization sweeps and cluster runs, on an on-disk layout with a
// versioned schema, so warm results survive process restarts and are
// shared across processes. Every record is of one Kind — Counters
// (uarch.Counters keyed by the sweep memo key) or Cluster (workloads.Stats
// keyed by the cluster run key) — and the Kind is the one codec: it names
// the record, maps its key to the canonical JSON the content address is
// hashed from, and encodes and verifies the record bytes the store
// persists and the dispatch layer ships.
//
// Layout under the root directory:
//
//	root/SCHEMA               the schema version ("2\n"); any other version
//	                          refuses to open rather than misread old bytes
//	root/v2/shard-??/         one directory per hash shard (defaultShards)
//	root/v2/shard-??/<addr>.json one record per key; <addr> is the fnv64a of
//	                          (kind, canonical key JSON); its mtime is the
//	                          record's last Put or Get
//
// Records are written to a temp file and renamed into place, so concurrent
// readers — including other processes — observe either the whole record or
// none of it. Each record embeds its kind, its full key and a checksum; Get
// verifies all three, so a hash collision, a torn write or a flipped byte
// degrades to a counted miss instead of returning the wrong workload's
// counters.
//
// The directory is the index. Open lists each shard once and takes every
// record's size and mtime from the listing (one lstat per record), and the
// in-memory index built from it makes Len an O(1) counter read and carries
// each record's last-access time, which drives the LRU eviction pass:
// Evict removes the least-recently-used records beyond the byte budget,
// which is always finite (DefaultMaxBytes unless OpenOptions.MaxBytes sets
// another). A Put or Get stamps the record's mtime, so recency survives a
// restart. Within one process the store is safe for any number of
// goroutines (per-shard locking); across processes the record files stay
// coherent (Get falls back to disk and adopts foreign records into the
// index), while Len and LRU stamps are per-process views that converge on
// the next Open.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcbench/internal/obs"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// SchemaVersion is the on-disk schema this package reads and writes.
const SchemaVersion = 2

// defaultShards is every store's shard count: wide enough that a
// full-width sweep's write-through rarely contends on one shard lock, small
// enough that an empty store is a handful of directories. A key's shard is
// the low bits of its address, so the count is a power of two and fixed.
const defaultShards = 16

// DefaultMaxBytes is the byte budget of a store opened without one. A
// record is a pure function of its key, so nothing in a store ever goes
// stale; but /v1/jobs keys are client-chosen, so without a finite budget a
// client minting new keys grows the disk without bound. 256 MiB holds
// about 460 000 records, some 7 800 full figure stores.
const DefaultMaxBytes int64 = 256 << 20

// OpenOptions tunes OpenWith. The zero value matches Open.
type OpenOptions struct {
	// MaxBytes caps the total record bytes on disk: a Put pushing the total
	// past it triggers an LRU eviction pass trimming to 10% below the cap
	// (so a sustained write load evicts per batch, not per Put); an explicit
	// Evict trims to the cap exactly. 0 means DefaultMaxBytes; a negative
	// budget is refused, and there is no unlimited one.
	MaxBytes int64
	// Now supplies timestamps for LRU stamps; nil means time.Now. Tests
	// inject a fake clock here.
	Now func() time.Time
	// Log defaults to slog.Default().
	Log *slog.Logger
}

// RegisterFlags declares the store's byte-budget flag on fs, defaulted
// from *o (DefaultMaxBytes when unset) and written back on Parse — the
// single definition shared by dcbench and dcserved, so the flag surface
// cannot drift between the binaries.
func RegisterFlags(fs *flag.FlagSet, o *OpenOptions) {
	if o.MaxBytes == 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	fs.Int64Var(&o.MaxBytes, "store-max-bytes", o.MaxBytes, "evict least-recently-used records once total record bytes exceed this; 0 = the default, negative is refused")
}

// Stats is a snapshot of the store's monotonic counters plus its current
// size and geometry: the store block of /healthz. Each field declares the
// /metrics family it is exported under. The hit/miss split tells an
// operator how warm the store is; a nonzero Corrupt count flags disk
// trouble the store silently degraded around.
type Stats struct {
	Records   int64 `json:"records" metric:"dcserved_store_records,gauge" help:"Records currently in the result store."`
	Bytes     int64 `json:"bytes" metric:"dcserved_store_bytes,gauge" help:"Total record bytes in the result store."`
	Shards    int64 `json:"shards" metric:"dcserved_store_shards,gauge" help:"Hash shards in the result store."`
	Hits      int64 `json:"hits" metric:"dcserved_store_hits_total,counter" help:"Store reads that returned a valid record."`
	Misses    int64 `json:"misses" metric:"dcserved_store_misses_total,counter" help:"Store reads that found no usable record."`
	Writes    int64 `json:"writes" metric:"dcserved_store_writes_total,counter" help:"Records written to the store."`
	Evictions int64 `json:"evictions" metric:"dcserved_store_evictions_total,counter" help:"Records removed by the eviction policy."`
	Corrupt   int64 `json:"corrupt" metric:"dcserved_store_corrupt_total,counter" help:"Corrupt records detected and skipped."`
	// Adopted counts records installed from a replica peer (write-through
	// push or anti-entropy pull) rather than simulated here — the split
	// that lets "writes" keep meaning "computed on this node", which the
	// zero-re-simulation oracles depend on.
	Adopted int64 `json:"adopted" metric:"dcserved_store_adopted_total,counter" help:"Records adopted verbatim from replica peers (push or anti-entropy)."`
}

// Store is an on-disk result store. It is safe for concurrent use by any
// number of goroutines; see the package comment for the cross-process
// contract.
type Store struct {
	shards   []*shard
	maxBytes int64
	now      func() time.Time
	log      *slog.Logger

	live      atomic.Int64 // current record count across shards
	bytes     atomic.Int64 // current record bytes across shards
	hits      atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	adopted   atomic.Int64 // records installed verbatim from a replica peer
	evictions atomic.Int64
	corrupt   atomic.Int64
	evictMu   sync.Mutex // one eviction pass at a time

	onWrite atomic.Pointer[func(addr string, data []byte)] // see OnWrite
}

// Open opens (creating if needed) the store rooted at dir with default
// options.
func Open(dir string) (*Store, error) { return OpenWith(dir, OpenOptions{}) }

// OpenWith opens (creating if needed) the store rooted at dir. Validation
// runs before any write: a directory holding another schema version, or a
// non-empty directory that is not a store at all (a mistyped -store path,
// say), is refused untouched — refusing is safer than guessing, and the
// caller can point at a fresh directory.
func OpenWith(dir string, opt OpenOptions) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty root directory")
	}
	switch {
	case opt.MaxBytes < 0:
		return nil, fmt.Errorf("store: -store-max-bytes %d is negative; the budget is finite (0 = the default %d)", opt.MaxBytes, DefaultMaxBytes)
	case opt.MaxBytes == 0:
		opt.MaxBytes = DefaultMaxBytes
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.Log == nil {
		opt.Log = slog.Default()
	}

	marker := filepath.Join(dir, "SCHEMA")
	switch got, err := os.ReadFile(marker); {
	case err == nil:
		if v := strings.TrimSpace(string(got)); v != strconv.Itoa(SchemaVersion) {
			return nil, fmt.Errorf("store: %s holds schema version %q, this build reads \"%d\"", dir, v, SchemaVersion)
		}
	case errors.Is(err, fs.ErrNotExist):
		if entries, derr := os.ReadDir(dir); derr == nil && len(entries) > 0 {
			return nil, fmt.Errorf("store: %s is non-empty but carries no SCHEMA marker; refusing to initialise a store over it", dir)
		} else if derr != nil && !errors.Is(derr, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: %w", derr)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := writeFileAtomic(marker, []byte(fmt.Sprintf("%d\n", SchemaVersion))); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	default:
		return nil, fmt.Errorf("store: %w", err)
	}

	s := &Store{
		maxBytes: opt.MaxBytes,
		now:      opt.Now,
		log:      opt.Log,
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	for i := 0; i < defaultShards; i++ {
		sh := &shard{dir: filepath.Join(root, fmt.Sprintf("shard-%02x", i))}
		if err := sh.open(); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.live.Add(int64(len(sh.index)))
		for _, e := range sh.index {
			s.bytes.Add(e.size)
		}
		s.shards = append(s.shards, sh)
	}
	if s.bytes.Load() > s.maxBytes {
		s.Evict()
	}
	return s, nil
}

// writeFileAtomic replaces path via a temp file, fsync and rename. The
// fsync matters for the one file this is used on — SCHEMA — where a power
// loss making the rename durable but not the content would leave a
// truncated marker that refuses every later Open. (Record writes go through shard.install instead and skip the
// fsync: counters are re-simulable, so losing one to a power cut is a
// cache miss, not corruption — the checksum catches the torn bytes.)
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".write-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Best-effort directory sync so the rename itself is durable too.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Close ends the store's use. A Store holds no open files and buffers
// nothing — every Put and Get has reached the disk when it returns — so
// Close has nothing to release and returns nil.
func (s *Store) Close() error { return nil }

// ShardCount reports the shard count, defaultShards.
func (s *Store) ShardCount() int { return len(s.shards) }

// Len is the current record count — an O(1) counter read off the in-memory
// index, not a directory walk (and, unlike v1's, infallible).
func (s *Store) Len() int { return int(s.live.Load()) }

// Bytes is the current total record bytes — the value the MaxBytes budget
// is enforced against, an O(1) counter read like Len.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Records:   s.live.Load(),
		Bytes:     s.bytes.Load(),
		Shards:    int64(len(s.shards)),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Adopted:   s.adopted.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// addrHash is the content address of a (kind, canonical key) pair as a
// number: fnv64a over kind, NUL, key. It depends on nothing else — not the
// payload, not a store's shard count — so every node computes the same
// address for the same record.
func addrHash(kind string, key []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(key)
	return h.Sum64()
}

func formatAddr(a uint64) string { return fmt.Sprintf("%016x", a) }

// locate addresses a (kind, canonical key) pair: the address names the
// record file, its low bits pick the shard.
func (s *Store) locate(kind string, key []byte) (string, *shard) {
	a := addrHash(kind, key)
	return formatAddr(a), s.shards[a&uint64(len(s.shards)-1)]
}

// OnWrite registers the store's write hook: fn is called with the content
// address and the encoded record bytes after every record this node
// computed (or fetched through dispatch) has been installed — never for a
// record adopted from a peer, and never when the install failed.
// Replication registers its fan-out here. One hook; a later call replaces
// it. fn runs on the writing goroutine and must not block.
func (s *Store) OnWrite(fn func(addr string, data []byte)) { s.onWrite.Store(&fn) }

// get loads the record stored under (kind, key), unmarshalling its payload
// into `into`. A missing, corrupt, or key-mismatched record is a counted
// miss (false, nil error) — validation runs before the hit is counted or
// the LRU stamp refreshed, so an unusable record never masquerades as a
// hit or climbs the eviction order. An error means the store itself
// misbehaved (unreadable file, bad permissions).
func (s *Store) get(kind string, key []byte, into any) (bool, error) {
	addr, sh := s.locate(kind, key)
	data, err := os.ReadFile(sh.recordPath(addr))
	if errors.Is(err, fs.ErrNotExist) {
		sh.forget(s, addr) // another process may have evicted it
		s.misses.Add(1)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	gotKind, gotKey, payload, derr := decodeRecord(data)
	if derr != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return false, nil // torn or mutated record: a counted miss
	}
	if gotKind != kind || string(gotKey) != string(key) {
		s.misses.Add(1)
		return false, nil // hash collision or foreign record: miss
	}
	if err := json.Unmarshal(payload, into); err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return false, nil // checksum-valid but untypeable: a counted miss
	}
	s.hits.Add(1)
	sh.touch(s, addr, s.now().UnixNano(), int64(len(data)))
	return true, nil
}

// put persists payload under (kind, key), atomically replacing any prior
// record, then enforces the byte budget.
func (s *Store) put(kind string, key, payload []byte) error {
	data, err := encodeRecord(kind, key, payload)
	if err != nil {
		return err
	}
	addr, sh := s.locate(kind, key)
	if err := sh.install(s, addr, data, s.now().UnixNano()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	s.enforceBudget()
	if fn := s.onWrite.Load(); fn != nil {
		(*fn)(addr, data)
	}
	return nil
}

// enforceBudget runs the post-install eviction check every record
// installation shares (a simulated Put or an adopted replica record): past
// the byte budget, trim to 10% below it, so a sustained write load triggers
// a pass per batch, not a full snapshot-and-sort per Put.
func (s *Store) enforceBudget() {
	if s.bytes.Load() > s.maxBytes {
		s.evict(s.maxBytes - s.maxBytes/10)
	}
}

// Evict runs one eviction pass: the least-recently-used records beyond the
// byte budget go. It returns how many records were removed. Records
// touched after the pass snapshots the index are spared, so a concurrent
// hit never has its record yanked on the basis of a stale stamp.
func (s *Store) Evict() int { return s.evict(s.maxBytes) }

// evict removes the least-recently-used records until the total record
// bytes are at most maxBytes.
func (s *Store) evict(maxBytes int64) int {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	type candidate struct {
		sh   *shard
		addr string
		last int64
		size int64
	}
	var all []candidate
	var totalBytes int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		for addr, e := range sh.index {
			all = append(all, candidate{sh, addr, e.lastAccess, e.size})
			totalBytes += e.size
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].last < all[j].last })
	bytesOver := totalBytes - maxBytes
	evicted := 0
	for _, c := range all {
		if bytesOver <= 0 {
			break // sorted by last access: everything after is younger
		}
		if c.sh.evict(s, c.addr, c.last) {
			evicted++
			bytesOver -= c.size
		}
	}
	if evicted > 0 {
		s.evictions.Add(int64(evicted))
		s.log.Debug("store: evicted records", "count", evicted)
	}
	return evicted
}

// Get loads the counters stored under k.
func (s *Store) Get(k sweep.Key) (*uarch.Counters, bool, error) { return Counters.get(s, k) }

// Put persists counters under k, atomically replacing any prior record.
func (s *Store) Put(k sweep.Key, c *uarch.Counters) error { return Counters.put(s, k, c) }

// --- backend adapter ---

// Backend is the store as both memo seams' persistent backend: the sweep
// engine's (sweep.MemoBackend, counters records) and the cluster cache's
// (workloads.StatsBackend, cluster records).
type Backend interface {
	sweep.MemoBackend
	workloads.StatsBackend
}

// Backend adapts the store to both record kinds' backend contracts:
// failures are logged and swallowed, so a broken disk degrades sweeps and
// cluster runs to plain re-simulation instead of failing them.
func (s *Store) Backend(log *slog.Logger) Backend {
	if log == nil {
		log = slog.Default()
	}
	return &backend{s: s, log: log}
}

type backend struct {
	s   *Store
	log *slog.Logger
}

func (b *backend) Load(ctx context.Context, k sweep.Key) (*uarch.Counters, bool) {
	return load(ctx, b, Counters, k)
}
func (b *backend) Store(ctx context.Context, k sweep.Key, c *uarch.Counters) {
	save(ctx, b, Counters, k, c)
}
func (b *backend) LoadStats(ctx context.Context, k workloads.StatsKey) (*workloads.Stats, bool) {
	return load(ctx, b, Cluster, k)
}
func (b *backend) StoreStats(ctx context.Context, k workloads.StatsKey, st *workloads.Stats) {
	save(ctx, b, Cluster, k, st)
}

// load is every backend read: a store error is logged and reported as a
// miss, so the caller recomputes.
func load[K comparable, T any](ctx context.Context, b *backend, kind Kind[K, T], k K) (*T, bool) {
	sp := obs.Start(ctx, "store.read", "kind", kind.Name)
	v, ok, err := kind.get(b.s, k)
	sp.End("hit", strconv.FormatBool(ok && err == nil))
	if err != nil {
		b.log.Warn("store load failed; recomputing", "kind", kind.Name, "key", k, "err", err)
		return nil, false
	}
	return v, ok
}

// save is every backend write: a store error is logged and the result
// stays unpersisted.
func save[K comparable, T any](ctx context.Context, b *backend, kind Kind[K, T], k K, v *T) {
	sp := obs.Start(ctx, "store.write", "kind", kind.Name)
	err := kind.put(b.s, k, v)
	sp.End()
	if err != nil {
		b.log.Warn("store put failed; result not persisted", "kind", kind.Name, "key", k, "err", err)
	}
}
