// Package tracecache materialises workload instruction traces once and
// replays them across every machine configuration of a sweep.
//
// The paper's characterization (Section III-D) runs one fixed instruction
// stream per workload through many machine configurations, but the live
// trace path regenerates the stream — the real PageRank/k-means/HMM
// algorithm plus the Zipf code-layout, GC and kernel models — for every
// (workload, config) point, and pays a generator goroutine, a channel hop
// and a batch copy per 8192 instructions on top. This package removes all
// of that for every config after the first:
//
//   - a columnar segment encoding stores the trace struct-of-arrays with
//     delta-encoded PC/Addr/Target streams and varint dependency distances,
//     so a cached trace costs a fraction of []memtrace.Inst's ~40 B per
//     instruction;
//   - a byte-budgeted LRU keyed by (generator identity, profile
//     fingerprint, trace length) bounds resident trace bytes, with
//     singleflight capture via memo.Memo so concurrent configs of one
//     workload share a single generation;
//   - segmentReader implements memtrace.Reader by decoding straight into
//     the caller's buffer — no goroutine, no channel, no intermediate
//     batch;
//   - traces that exceed the budget, or instructions outside the encodable
//     envelope, degrade to counted live generation instead of failing.
//
// Replayed runs are bit-identical to generated runs: the encoding is
// lossless for every instruction the tracer emits, pinned by the
// round-trip tests here.
//
// Neither binary installs a cache: every shipped path simulates one
// machine per process, where replay cannot pay (it saves under 3 ns of a
// ~56 ns instruction), so sweep.Engine always generates live. The package
// remains for the benchmark's capture and replay probes.
package tracecache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"dcbench/internal/memo"
	"dcbench/internal/memtrace"
	"dcbench/internal/obs"
)

// traceKey identifies one generated trace: the workload name (the generator
// closure's identity, per sweep.Job's uniqueness contract) and its full
// normalized profile — which embeds the seed and the effective MaxInstrs,
// so two trace lengths never share an entry. The machine configuration is
// deliberately absent: that is the whole point of the cache.
type traceKey struct {
	Name    string
	Profile memtrace.Profile
}

// Stats is a point-in-time snapshot of the cache's counters. Hits replay
// without generation; Misses triggered a capture (or joined one in
// flight); Captures counts actual generations, so a sweep over N configs
// of one workload shows Captures == 1 and Hits == N-1. Fallbacks counts
// live generations forced by over-budget or unencodable traces.
type Stats struct {
	Traces    int64 `json:"traces"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Captures  int64 `json:"captures"`
	Evictions int64 `json:"evictions"`
	Fallbacks int64 `json:"fallbacks"`
}

// DefaultMaxBytes is a byte budget that holds the full 26-workload
// registry at the default trace length several times over, small next to
// the simulated cache state the core pools already hold.
const DefaultMaxBytes int64 = 256 << 20

// Sentinel reasons a trace stays uncacheable; both degrade to live
// generation, counted in Stats.Fallbacks.
var (
	errTooLarge    = errors.New("tracecache: trace exceeds the cache byte budget")
	errUnencodable = errors.New("tracecache: instruction outside the encodable envelope")
)

// Cache is a byte-budgeted LRU of captured traces. Safe for concurrent
// use. Create with New.
type Cache struct {
	max    int64
	flight *memo.Memo[traceKey, *trace] // non-retaining: the LRU below is the cache

	mu          sync.Mutex
	entries     map[traceKey]*list.Element
	lru         *list.List // front = most recently used; values are *entry
	uncacheable map[traceKey]struct{}
	bytes       int64
	evictions   int64

	hits, misses, captures, fallbacks atomic.Int64
}

// entry is one LRU element.
type entry struct {
	key traceKey
	t   *trace
}

// New returns a cache bounded to maxBytes of encoded trace data, or nil
// when maxBytes <= 0 (the disabled configuration: callers treat a nil
// cache as absent).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache{
		max:         maxBytes,
		flight:      memo.NewFlight[traceKey, *trace](),
		entries:     make(map[traceKey]*list.Element),
		lru:         list.New(),
		uncacheable: make(map[traceKey]struct{}),
	}
	c.flight.SetName("trace.capture")
	return c
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	traces := int64(len(c.entries))
	bytes := c.bytes
	evictions := c.evictions
	c.mu.Unlock()
	return Stats{
		Traces:    traces,
		Bytes:     bytes,
		MaxBytes:  c.max,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Captures:  c.captures.Load(),
		Evictions: evictions,
		Fallbacks: c.fallbacks.Load(),
	}
}

// Reader returns an instruction stream for the (name, profile) trace:
// a zero-copy replay of the cached encoding on a hit, a capture-then-
// replay on the first miss (concurrent callers for one key share a single
// capture), and a live generator stream — replay == false — when the
// trace cannot be cached (over budget or unencodable). A non-nil error is
// a generator failure: the trace blew up during capture, exactly as it
// would have mid-simulation on the live path.
//
// The context carries the requesting trace (obs): the caller that pays
// for a capture records a "trace.capture" span, a budget fallback records
// a "trace.fallback" event, and callers that merely join an in-flight
// capture record the singleflight's join span. Cancellation is ignored —
// a captured trace is shared state, not one request's work.
func (c *Cache) Reader(ctx context.Context, name string, p memtrace.Profile, gen func(*memtrace.Tracer)) (r memtrace.Reader, replay bool, err error) {
	p = p.Normalize()
	key := traceKey{Name: name, Profile: p}

	c.mu.Lock()
	if _, bad := c.uncacheable[key]; bad {
		c.mu.Unlock()
		c.fallbacks.Add(1)
		obs.Event(ctx, "trace.fallback", "workload", name)
		return memtrace.NewReader(p, gen), false, nil
	}
	t := c.hit(key)
	c.mu.Unlock()
	if t != nil {
		c.hits.Add(1)
		return t.newReader(), true, nil
	}

	c.misses.Add(1)
	t, err = c.flight.DoShared(context.WithoutCancel(ctx), key, func(ctx context.Context) (*trace, error) {
		// The miss above and this flight are not one critical section: a
		// capture may have been inserted, and its flight cell released, in
		// between. Look again before paying for a second one.
		c.mu.Lock()
		t := c.hit(key)
		c.mu.Unlock()
		if t != nil {
			return t, nil
		}
		c.captures.Add(1)
		sp := obs.Start(ctx, "trace.capture", "workload", name)
		t, err := capture(p, gen, c.max)
		switch {
		case err == nil:
			c.insert(key, t)
			sp.End("bytes", strconv.FormatInt(t.bytes, 10), "instrs", strconv.FormatInt(t.n, 10))
		case errors.Is(err, errTooLarge) || errors.Is(err, errUnencodable):
			// Deterministic per key: remember, so later sweeps skip the
			// doomed capture instead of re-paying it per config.
			c.mu.Lock()
			c.uncacheable[key] = struct{}{}
			c.mu.Unlock()
			sp.End("uncacheable", "true")
		default:
			sp.End("err", err.Error())
		}
		return t, err
	})
	if err != nil {
		if errors.Is(err, errTooLarge) || errors.Is(err, errUnencodable) {
			c.fallbacks.Add(1)
			obs.Event(ctx, "trace.fallback", "workload", name)
			return memtrace.NewReader(p, gen), false, nil
		}
		return nil, false, err
	}
	return t.newReader(), true, nil
}

// hit returns key's cached trace, marking it most recently used, or nil.
// c.mu must be held.
func (c *Cache) hit(key traceKey) *trace {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).t
}

// insert adds a freshly captured trace and evicts least-recently-used
// entries until the byte budget holds again. Evicted traces stay valid
// for readers already replaying them — segments are immutable.
func (c *Cache) insert(key traceKey, t *trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return // a racing second capture (flight restarted) lost; keep the first
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, t: t})
	c.bytes += t.bytes
	for c.bytes > c.max && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.t.bytes
		c.evictions++
	}
}

// trace is one captured, immutable instruction stream in columnar
// segments.
type trace struct {
	segs  []*segment
	n     int64 // total instructions
	bytes int64 // encoded size
}

// length returns the instruction count.
func (t *trace) length() int64 { return t.n }

// size returns the encoded size.
func (t *trace) size() int64 { return t.bytes }

// newReader returns a fresh replay of the trace. Readers are independent;
// each decodes the shared segments into the caller's buffers.
func (t *trace) newReader() memtrace.Reader { return &segmentReader{t: t} }

// segInstrs caps a segment's instruction count. Delta state resets per
// segment, so segments decode independently — the shape an on-disk spill
// layer would stream back one at a time.
const segInstrs = 1 << 16

// segment holds one run of instructions struct-of-arrays:
//
//	flags  — 1 byte per instruction: op(3) | taken(1) | kernel(1) |
//	         nsrc(2) | has-dep2(1)
//	pc     — zigzag-varint delta from the previous instruction's PC
//	deps   — Dep1 varint, then Dep2 varint when the flag bit is set
//	addr   — loads/stores only: zigzag-varint delta from the previous
//	         memory address in the segment
//	target — branches only: zigzag-varint delta from the branch's own PC
//
// PC deltas are almost always +4 (one byte); dependency distances are
// almost always < 47 (one byte); non-memory instructions pay no address
// byte and non-branches no target, so a mixed trace encodes in ~4-6 bytes
// per instruction against 40 for the struct form.
type segment struct {
	n      int
	flags  []byte
	pc     []byte
	deps   []byte
	addr   []byte
	target []byte
}

func (s *segment) size() int64 {
	return int64(len(s.flags) + len(s.pc) + len(s.deps) + len(s.addr) + len(s.target))
}

// flag-byte layout.
const (
	flagOpMask    = 0b0000_0111
	flagTaken     = 0b0000_1000
	flagKernel    = 0b0001_0000
	flagNSrcShift = 5
	flagNSrcMask  = 0b0110_0000
	flagDep2      = 0b1000_0000
)

// opBranchAddr is a spare opcode (real ops stop at OpBranch == 4) encoding
// a branch that also carries a memory address — the tracer's framework
// burst emits these when one slot is both its periodic load and its
// periodic branch. Such instructions read the addr stream and the target
// stream.
const opBranchAddr = byte(memtrace.OpBranch) + 1

// zigzag encodes a signed delta into an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// putUvarint appends v to b in LEB128.
func putUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// uvarint decodes the varint at b[pos:], returning the value and the next
// position. Inputs come only from putUvarint, so truncation cannot occur.
func uvarint(b []byte, pos int) (uint64, int) {
	var v uint64
	var s uint
	for {
		x := b[pos]
		pos++
		v |= uint64(x&0x7f) << s
		if x < 0x80 {
			return v, pos
		}
		s += 7
	}
}

// encoder builds segments incrementally during capture.
type encoder struct {
	segs     []*segment
	cur      *segment
	prevPC   uint64
	prevAddr uint64
	n        int64
	closed   int64 // bytes in finalized segments
}

// add encodes one instruction, or reports errUnencodable for instructions
// outside the envelope the format can represent losslessly (the tracer
// never emits them; hand-built readers might).
func (e *encoder) add(in *memtrace.Inst) error {
	if in.Op > memtrace.OpBranch || in.NSrc > 3 {
		return errUnencodable
	}
	isMem := in.Op == memtrace.OpLoad || in.Op == memtrace.OpStore
	isBranch := in.Op == memtrace.OpBranch
	code := byte(in.Op)
	if isBranch && in.Addr != 0 {
		code = opBranchAddr
	}
	hasAddr := isMem || code == opBranchAddr
	if (!hasAddr && in.Addr != 0) || (!isBranch && in.Target != 0) {
		return errUnencodable
	}
	if e.cur == nil {
		e.cur = &segment{}
		e.segs = append(e.segs, e.cur)
		e.prevPC, e.prevAddr = 0, 0
	}
	s := e.cur

	f := code | in.NSrc<<flagNSrcShift
	if in.Taken {
		f |= flagTaken
	}
	if in.Kernel {
		f |= flagKernel
	}
	if in.Dep2 != 0 {
		f |= flagDep2
	}
	s.flags = append(s.flags, f)

	s.pc = putUvarint(s.pc, zigzag(int64(in.PC-e.prevPC)))
	e.prevPC = in.PC

	s.deps = putUvarint(s.deps, uint64(in.Dep1))
	if in.Dep2 != 0 {
		s.deps = putUvarint(s.deps, uint64(in.Dep2))
	}
	if hasAddr {
		s.addr = putUvarint(s.addr, zigzag(int64(in.Addr-e.prevAddr)))
		e.prevAddr = in.Addr
	}
	if isBranch {
		s.target = putUvarint(s.target, zigzag(int64(in.Target-in.PC)))
	}

	s.n++
	e.n++
	if s.n == segInstrs {
		e.closed += s.size()
		e.cur = nil
	}
	return nil
}

// size returns the bytes encoded so far.
func (e *encoder) size() int64 {
	if e.cur != nil {
		return e.closed + e.cur.size()
	}
	return e.closed
}

// finish finalizes the encoder into an immutable trace.
func (e *encoder) finish() *trace {
	return &trace{segs: e.segs, n: e.n, bytes: e.size()}
}

// capture generates the full trace for p once and encodes it, aborting
// with errTooLarge as soon as the encoding crosses limit. A generator
// panic comes back as an error, exactly like the live path's TracePanic.
func capture(p memtrace.Profile, gen func(*memtrace.Tracer), limit int64) (t *trace, err error) {
	r := memtrace.NewReader(p, gen)
	enc := &encoder{}
	buf := make([]memtrace.Inst, 8192)
	abort := false
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if tp, ok := rec.(memtrace.TracePanic); ok {
				// The generator goroutine has already exited.
				err = fmt.Errorf("trace generation panicked: %v", tp.Val)
				return
			}
			panic(rec) // an encoder bug, not a trace condition: stay loud
		}()
		for {
			n := r.Read(buf)
			if n == 0 {
				return
			}
			for i := 0; i < n; i++ {
				if aerr := enc.add(&buf[i]); aerr != nil {
					err = aerr
					abort = true
					return
				}
			}
			if limit > 0 && enc.size() > limit {
				err = errTooLarge
				abort = true
				return
			}
		}
	}()
	if abort {
		r.Close() // the generator goroutine is still producing: stop it
	}
	if err != nil {
		return nil, err
	}
	return enc.finish(), nil
}

// segmentReader replays a trace, implementing memtrace.Reader by decoding
// the columnar streams directly into the caller's buffer — no generator
// goroutine, no channel hop, no intermediate batch copy. Not safe for
// concurrent use; create one per replay with trace.newReader.
type segmentReader struct {
	t   *trace
	seg int // current segment index
	i   int // instructions decoded from the current segment

	pcPos, depPos, addrPos, targetPos int
	prevPC, prevAddr                  uint64
}

// Read implements memtrace.Reader.
func (r *segmentReader) Read(buf []memtrace.Inst) int {
	total := 0
	for total < len(buf) && r.seg < len(r.t.segs) {
		s := r.t.segs[r.seg]
		for total < len(buf) && r.i < s.n {
			f := s.flags[r.i]
			in := &buf[total]

			var v uint64
			v, r.pcPos = uvarint(s.pc, r.pcPos)
			pc := r.prevPC + uint64(unzigzag(v))
			r.prevPC = pc

			var d1, d2 uint64
			d1, r.depPos = uvarint(s.deps, r.depPos)
			if f&flagDep2 != 0 {
				d2, r.depPos = uvarint(s.deps, r.depPos)
			}

			code := f & flagOpMask
			op := memtrace.Op(code)
			if code == opBranchAddr {
				op = memtrace.OpBranch
			}
			var addr, target uint64
			if op == memtrace.OpLoad || op == memtrace.OpStore || code == opBranchAddr {
				v, r.addrPos = uvarint(s.addr, r.addrPos)
				addr = r.prevAddr + uint64(unzigzag(v))
				r.prevAddr = addr
			}
			if op == memtrace.OpBranch {
				v, r.targetPos = uvarint(s.target, r.targetPos)
				target = pc + uint64(unzigzag(v))
			}

			*in = memtrace.Inst{
				PC:     pc,
				Addr:   addr,
				Target: target,
				Dep1:   uint16(d1),
				Dep2:   uint16(d2),
				Op:     op,
				Taken:  f&flagTaken != 0,
				Kernel: f&flagKernel != 0,
				NSrc:   f >> flagNSrcShift & 3,
			}
			total++
			r.i++
		}
		if r.i == s.n {
			r.seg++
			r.i = 0
			r.pcPos, r.depPos, r.addrPos, r.targetPos = 0, 0, 0, 0
			r.prevPC, r.prevAddr = 0, 0
		}
	}
	return total
}
