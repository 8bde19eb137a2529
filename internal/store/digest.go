package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"sort"
	"strconv"
)

// This file is the store's replication surface: per-shard index digests a
// peer can compare against its own, raw record export, and idempotent
// adoption of a peer's record bytes. The record codec already embeds kind,
// key and checksum, and results are deterministic (the same key simulates
// to the same bytes on every node), so existence is identity: two shards
// holding the same address set hold the same records, and a digest over
// the sorted address list is a complete divergence test — no per-record
// hashing, no merkle tree, one fnv64a over strings the index already
// holds in memory.

// ShardDigest summarises one shard's contents for anti-entropy: the live
// record count and bytes plus a digest over the sorted record addresses.
// Two replicas whose digests match for a shard hold identical record sets
// there; a mismatch is repaired by pulling the missing addresses.
type ShardDigest struct {
	Shard  int    `json:"shard"`
	Count  int64  `json:"count"`
	Bytes  int64  `json:"bytes"`
	Digest string `json:"digest"`
}

// ShardDigests snapshots every shard's digest, in shard order.
func (s *Store) ShardDigests() []ShardDigest {
	out := make([]ShardDigest, len(s.shards))
	for i, sh := range s.shards {
		addrs, bytes := sh.addrs()
		h := fnv.New64a()
		for _, a := range addrs {
			h.Write([]byte(a))
			h.Write([]byte{'\n'})
		}
		out[i] = ShardDigest{
			Shard:  i,
			Count:  int64(len(addrs)),
			Bytes:  bytes,
			Digest: fmt.Sprintf("%016x", h.Sum64()),
		}
	}
	return out
}

// ShardAddrs lists one shard's record addresses, sorted — what a peer
// pulls after a digest mismatch to compute the set difference.
func (s *Store) ShardAddrs(shard int) ([]string, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("store: shard %d outside [0, %d)", shard, len(s.shards))
	}
	addrs, _ := s.shards[shard].addrs()
	return addrs, nil
}

// addrs snapshots the shard's sorted address list and total record bytes.
func (sh *shard) addrs() ([]string, int64) {
	sh.mu.Lock()
	out := make([]string, 0, len(sh.index))
	var bytes int64
	for a, e := range sh.index {
		out = append(out, a)
		bytes += e.size
	}
	sh.mu.Unlock()
	sort.Strings(out)
	return out, bytes
}

// GetRecord reads the record stored at addr exactly as persisted — the
// checksummed wire bytes a replica peer adopts verbatim. The record is
// decode-verified and its address recomputed from the embedded (kind, key)
// before it is served, so a corrupt or misfiled record is a counted miss
// (false, nil error), never exported to a peer.
func (s *Store) GetRecord(addr string) ([]byte, bool, error) {
	sh, err := s.shardFor(addr)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(sh.recordPath(addr))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	kind, key, _, derr := decodeRecord(data)
	if derr != nil {
		s.corrupt.Add(1)
		return nil, false, nil
	}
	if got, _ := s.locate(kind, key); got != addr {
		s.corrupt.Add(1)
		return nil, false, nil
	}
	return data, true, nil
}

// AdoptRecord installs a peer's record bytes verbatim under their content
// address: the record is decode-verified (checksum, schema) and addressed
// from its embedded kind and key, so a mangled or misdirected push cannot
// land, and the same bytes land at the same address on every replica —
// byte-identical convergence by construction. Adoption is idempotent (an
// address already indexed is left untouched and reported false) and
// counted separately from writes, so "writes" keeps meaning "simulated on
// this node". The byte budget is enforced after the install, exactly as
// for a local Put.
func (s *Store) AdoptRecord(data []byte) (bool, error) {
	kind, key, _, err := decodeRecord(data)
	if err != nil {
		s.corrupt.Add(1)
		return false, fmt.Errorf("store: adopt: %w", err)
	}
	addr, sh := s.locate(kind, key)
	sh.mu.Lock()
	_, have := sh.index[addr]
	sh.mu.Unlock()
	if have {
		return false, nil
	}
	if err := sh.install(s, addr, data, s.now().UnixNano()); err != nil {
		return false, fmt.Errorf("store: adopt: %w", err)
	}
	s.adopted.Add(1)
	s.enforceBudget()
	return true, nil
}

// shardFor maps a record address to its shard — the same low-bits routing
// locate uses, recovered from the address itself.
func (s *Store) shardFor(addr string) (*shard, error) {
	if len(addr) != 16 {
		return nil, fmt.Errorf("store: malformed record address %q", addr)
	}
	a, err := strconv.ParseUint(addr, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("store: malformed record address %q", addr)
	}
	return s.shards[a&uint64(len(s.shards)-1)], nil
}
