package store

import (
	"bytes"
	"encoding/json"
	"testing"

	"dcbench/internal/memtrace"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// fuzzBase builds one canonical encoded record plus its parts.
func fuzzBase(t testing.TB) (data, key, payload []byte) {
	t.Helper()
	k, err := Counters.key(sweep.Key{
		Name:      "Sort",
		Profile:   memtrace.Profile{Seed: 42, MaxInstrs: 50_000, CodeKB: 128, HeapMB: 8},
		ConfigFP:  0x1234_5678_9abc_def0,
		MaxInstrs: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := json.Marshal(uarch.Counters{
		Cycles: 1_000_003, Instructions: 780_001, KernelInstructions: 90_000,
		Branches: 120_000, BranchMispredicts: 7_000,
		L1IAccesses: 700_000, L1IMisses: 21_000, L2Accesses: 50_000, L2Misses: 9_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := encodeRecord(KindCounters, k, p)
	if err != nil {
		t.Fatal(err)
	}
	return d, k, p
}

// FuzzRecordRoundTrip: whatever key and counter values a record is encoded
// from, decoding its exact bytes must return them unchanged.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("Sort", uint64(42), int64(50_000), int64(1_000_003), int64(780_001))
	f.Add("", uint64(0), int64(0), int64(-1), int64(1<<62))
	f.Add("K-means\n\"quoted\"", uint64(1<<63), int64(-5), int64(7), int64(7))
	f.Fuzz(func(t *testing.T, name string, seed uint64, maxInstrs, cycles, instrs int64) {
		key, err := Counters.key(sweep.Key{
			Name:      name,
			Profile:   memtrace.Profile{Seed: seed, MaxInstrs: maxInstrs},
			ConfigFP:  seed ^ 0xdead_beef,
			MaxInstrs: maxInstrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(uarch.Counters{Cycles: cycles, Instructions: instrs})
		if err != nil {
			t.Fatal(err)
		}
		data, err := encodeRecord(KindCounters, key, payload)
		if err != nil {
			t.Fatal(err)
		}
		kind, gotKey, gotPayload, err := decodeRecord(data)
		if err != nil {
			t.Fatalf("decode of a fresh record failed: %v", err)
		}
		if kind != KindCounters || !bytes.Equal(gotKey, key) || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip changed the record:\nkind %q\nkey  %s -> %s\npay  %s -> %s",
				kind, key, gotKey, payload, gotPayload)
		}
	})
}

// FuzzRecordCorruption: a mutated record must never decode into different
// content — it is either rejected (the counted-miss path) or, when the
// mutation happens to be semantically inert (an unused byte value equal to
// the original, say), returns exactly the original parts. Valid counters
// can therefore never come out of corrupt bytes.
func FuzzRecordCorruption(f *testing.F) {
	base, baseKey, basePayload := fuzzBase(f)
	f.Add(0, byte(0))
	f.Add(10, byte('}'))
	f.Add(len(base)-2, byte('0'))
	f.Add(len(base)/2, byte('9'))
	f.Fuzz(func(t *testing.T, pos int, val byte) {
		data := bytes.Clone(base)
		i := pos % len(data)
		if i < 0 {
			i += len(data)
		}
		orig := data[i]
		data[i] = val
		kind, key, payload, err := decodeRecord(data)
		if orig == val {
			if err != nil {
				t.Fatalf("untouched record rejected: %v", err)
			}
			return
		}
		if err != nil {
			return // detected — the store counts it and reports a miss
		}
		if kind != KindCounters || !bytes.Equal(key, baseKey) || !bytes.Equal(payload, basePayload) {
			t.Fatalf("mutation at %d (%q -> %q) decoded as valid but different content:\nkind %q\nkey  %s\npay  %s",
				i, orig, val, kind, key, payload)
		}
	})
}

// TestRecordSingleByteMutationsDetected is the deterministic floor under
// FuzzRecordCorruption: every position, a handful of substitute bytes, no
// corpus required. It runs on every `go test`, so a codec regression cannot
// hide behind an unlucky fuzz schedule.
func TestRecordSingleByteMutationsDetected(t *testing.T) {
	base, baseKey, basePayload := fuzzBase(t)
	for i := range base {
		for _, val := range []byte{0x00, '0', '9', 'z', '"', '}'} {
			if base[i] == val {
				continue
			}
			data := bytes.Clone(base)
			data[i] = val
			kind, key, payload, err := decodeRecord(data)
			if err != nil {
				continue
			}
			if kind != KindCounters || !bytes.Equal(key, baseKey) || !bytes.Equal(payload, basePayload) {
				t.Fatalf("mutation at %d (%q -> %q) decoded as valid but different content", i, base[i], val)
			}
		}
	}
}
