package store

import (
	"encoding/json"
	"fmt"

	"dcbench/internal/memtrace"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// A Kind is one record kind: its name, its key type K, its value type T
// and the canonical key encoding the content address is hashed from. The
// store persists records through it, and the dispatch layer ships job
// results between nodes in exactly those bytes: a checksummed, kind-tagged,
// key-embedding record. Reusing the record codec as the wire format means
// one set of integrity guarantees covers both disk and network — a torn
// response, a proxy mangling bytes, or a worker answering for the wrong
// key all fail the same decode-and-verify the store already runs on every
// Get, and a front-end can trust a decoded record enough to write it
// straight through to its own store. A future job kind is one more Kind
// value riding the same envelope.
type Kind[K comparable, T any] struct {
	Name  string                  // the record kind, also the /v1/jobs kind tag
	key   func(K) ([]byte, error) // the canonical key JSON
	parse func([]byte) (K, error) // the inverse of key
}

// The two record kinds.
var (
	// Counters records hold uarch.Counters keyed by the sweep memo key.
	Counters = newKind[sweep.Key, uarch.Counters](KindCounters,
		func(k sweep.Key) keyJSON { return keyJSON(k) },
		func(j keyJSON) sweep.Key { return sweep.Key(j) })
	// Cluster records hold workloads.Stats keyed by the cluster run key.
	Cluster = newKind[workloads.StatsKey, workloads.Stats](KindCluster,
		func(k workloads.StatsKey) statsKeyJSON { return statsKeyJSON(k) },
		func(j statsKeyJSON) workloads.StatsKey { return workloads.StatsKey(j) })
)

// keyJSON is sweep.Key with stable wire names; it doubles as the canonical
// encoding the content address is hashed from. memtrace.Profile is a flat
// struct of scalars, so its default JSON encoding is deterministic.
type keyJSON struct {
	Name      string           `json:"name"`
	Profile   memtrace.Profile `json:"profile"`
	ConfigFP  uint64           `json:"config_fp"`
	MaxInstrs int64            `json:"max_instrs"`
}

// statsKeyJSON is workloads.StatsKey with stable wire names.
type statsKeyJSON struct {
	Workload string  `json:"workload"`
	Slaves   int     `json:"slaves"`
	Scale    float64 `json:"scale"`
	Seed     uint64  `json:"seed"`
}

// newKind builds a Kind whose canonical key is the JSON of W, the key type
// K under stable wire names.
func newKind[K comparable, T, W any](name string, to func(K) W, from func(W) K) Kind[K, T] {
	return Kind[K, T]{
		Name: name,
		key: func(k K) ([]byte, error) {
			canon, err := json.Marshal(to(k))
			if err != nil {
				return nil, fmt.Errorf("store: encode %s key: %w", name, err)
			}
			return canon, nil
		},
		parse: func(data []byte) (K, error) {
			var w W
			err := json.Unmarshal(data, &w)
			return from(w), err
		},
	}
}

// Addr is the content address of k's record — what the peer plane ranks
// nodes by (peer.Rank).
func (kd Kind[K, T]) Addr(k K) (string, error) {
	key, err := kd.key(k)
	if err != nil {
		return "", err
	}
	return formatAddr(addrHash(kd.Name, key)), nil
}

// Encode serialises one result as a checksummed record of this kind — the
// bytes the store persists and a worker answers /v1/jobs with.
func (kd Kind[K, T]) Encode(k K, v *T) ([]byte, error) {
	key, payload, err := kd.marshal(k, v)
	if err != nil {
		return nil, err
	}
	return encodeRecord(kd.Name, key, payload)
}

// Decode parses and verifies a record of this kind, returning the key it
// was encoded under alongside a freshly allocated value. Any failure —
// unparseable bytes, a checksum mismatch, a record of another kind — is an
// error; the caller must additionally check the returned key against the
// key it asked for before trusting the value.
func (kd Kind[K, T]) Decode(data []byte) (K, *T, error) {
	var zero K
	kind, key, payload, err := decodeRecord(data)
	if err != nil {
		return zero, nil, err
	}
	if kind != kd.Name {
		return zero, nil, fmt.Errorf("%w: record kind %q, want %q", errCorrupt, kind, kd.Name)
	}
	k, err := kd.parse(key)
	if err != nil {
		return zero, nil, fmt.Errorf("%w: unreadable key: %v", errCorrupt, err)
	}
	v := new(T)
	if err := json.Unmarshal(payload, v); err != nil {
		return zero, nil, fmt.Errorf("%w: unreadable %s payload: %v", errCorrupt, kd.Name, err)
	}
	return k, v, nil
}

// marshal returns k's canonical key and v's payload JSON.
func (kd Kind[K, T]) marshal(k K, v *T) (key, payload []byte, err error) {
	if key, err = kd.key(k); err != nil {
		return nil, nil, err
	}
	if payload, err = json.Marshal(v); err != nil {
		return nil, nil, fmt.Errorf("store: encode %s payload: %w", kd.Name, err)
	}
	return key, payload, nil
}

// get loads the record of this kind stored under k in s.
func (kd Kind[K, T]) get(s *Store, k K) (*T, bool, error) {
	key, err := kd.key(k)
	if err != nil {
		return nil, false, err
	}
	v := new(T)
	if ok, err := s.get(kd.Name, key, v); !ok || err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// put persists v under k in s, atomically replacing any prior record.
func (kd Kind[K, T]) put(s *Store, k K, v *T) error {
	key, payload, err := kd.marshal(k, v)
	if err != nil {
		return err
	}
	return s.put(kd.Name, key, payload)
}

// The benchmark harness (bench/, its own module) compiles against these.

// EncodeCounters is Counters.Encode.
func EncodeCounters(k sweep.Key, c *uarch.Counters) ([]byte, error) { return Counters.Encode(k, c) }

// DecodeCounters is Counters.Decode.
func DecodeCounters(data []byte) (sweep.Key, *uarch.Counters, error) { return Counters.Decode(data) }

// DecodeStats is Cluster.Decode.
func DecodeStats(data []byte) (workloads.StatsKey, *workloads.Stats, error) {
	return Cluster.Decode(data)
}
