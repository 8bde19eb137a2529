package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
)

// Record kind names, Counters.Name and Cluster.Name. The kind is part of a
// record's address and its checksum, so two payload types can never
// collide into one record even if their key encodings happened to match.
const (
	KindCounters = "counters"
	KindCluster  = "cluster"
)

// record is the on-disk form of one result. Key and Payload stay raw so the
// codec is kind-agnostic; Sum is an fnv64a over (schema, kind, key, payload)
// so a flipped byte anywhere in the meaningful content is detected instead
// of being returned as valid counters — json.Unmarshal alone would happily
// accept a mutated digit.
type record struct {
	Schema  int             `json:"schema"`
	Kind    string          `json:"kind"`
	Key     json.RawMessage `json:"key"`
	Payload json.RawMessage `json:"payload"`
	Sum     string          `json:"sum"`
}

// errCorrupt tags every codec-level failure; callers count and skip these.
var errCorrupt = errors.New("corrupt record")

// recordSum hashes the record content the checksum covers. The NUL
// separators keep (kind="ab", key=`"c"`) and (kind="a", key=`"bc"`) apart.
func recordSum(kind string, key, payload []byte) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00", SchemaVersion, kind)
	h.Write(key)
	h.Write([]byte{0})
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// encodeRecord serialises one record. Key and payload are compacted first so
// the checksum is always computed over the exact bytes a decoder will see
// (json.Marshal compacts RawMessage content when embedding it).
func encodeRecord(kind string, key, payload []byte) ([]byte, error) {
	var ck, cp bytes.Buffer
	if err := json.Compact(&ck, key); err != nil {
		return nil, fmt.Errorf("store: encode key: %w", err)
	}
	if err := json.Compact(&cp, payload); err != nil {
		return nil, fmt.Errorf("store: encode payload: %w", err)
	}
	data, err := json.Marshal(record{
		Schema:  SchemaVersion,
		Kind:    kind,
		Key:     ck.Bytes(),
		Payload: cp.Bytes(),
		Sum:     recordSum(kind, ck.Bytes(), cp.Bytes()),
	})
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeRecord parses and verifies one record. Any failure — unparseable
// bytes, a foreign schema, a checksum mismatch — comes back wrapped in
// errCorrupt; a successful decode guarantees kind, key and payload are the
// bytes the record was encoded from.
func decodeRecord(data []byte) (kind string, key, payload []byte, err error) {
	var rec record
	if uerr := json.Unmarshal(data, &rec); uerr != nil {
		return "", nil, nil, fmt.Errorf("%w: %v", errCorrupt, uerr)
	}
	if rec.Schema != SchemaVersion {
		return "", nil, nil, fmt.Errorf("%w: schema %d", errCorrupt, rec.Schema)
	}
	if rec.Sum != recordSum(rec.Kind, rec.Key, rec.Payload) {
		return "", nil, nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	return rec.Kind, rec.Key, rec.Payload, nil
}
