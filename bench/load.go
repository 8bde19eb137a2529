package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcbench/internal/obs"
)

// This file is the load generator: a closed loop of keep-alive clients
// pulling operations from one shared cursor, so the op sequence is a pure
// function of the seed and the cursor value, and a slow server receives
// less load (this system's callers each wait for a reply).

// op is one generated operation. The generator fills the request half; the
// verifier reads the expectation half.
type op struct {
	index  int
	class  string // latency class: "200", "304", "csv", "job", "pull"
	method string
	url    string
	body   []byte
	header [][2]string

	want any // workload-specific expectation handed to verify
}

// sample is one verified operation's client-observed latency.
type sample struct {
	class string
	lat   time.Duration
}

// phase is the outcome of one closed-loop run.
type phase struct {
	wall      time.Duration
	attempted int
	failed    int
	samples   []sample
	errs      []string // first few failures, for the report
	traces    []opTrace
}

func (p *phase) verified() int { return p.attempted - p.failed }

// merge adds q's operations to p; wall times are kept by whoever timed the
// phases.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.samples = append(p.samples, q.samples...)
	p.errs = append(p.errs, q.errs...)
}

// latencies returns the sorted latencies, in ms, of the samples whose class
// passes keep (nil keeps all).
func (p *phase) latencies(keep func(class string) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if keep == nil || keep(s.class) {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// client is one closed-loop caller: one keep-alive connection, written and
// read from the caller's own goroutine. net/http's Transport hands every
// request to a pair of per-connection goroutines, which on a small box
// costs the load generator more CPU than the server spends answering; the
// request writer and response parser are still net/http's.
type client struct {
	addr string // host:port of the open connection
	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one operation and returns the status, headers and body. The
// body aliases the client's buffer and is valid until the next do.
func (c *client) do(o *op, traceID string) (int, http.Header, []byte, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, o.url, body)
	if err != nil {
		return 0, nil, nil, err
	}
	for _, h := range o.header {
		req.Header.Set(h[0], h[1])
	}
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	if c.conn == nil || c.addr != req.URL.Host {
		c.close()
		if c.conn, err = net.DialTimeout("tcp", req.URL.Host, 5*time.Second); err != nil {
			return 0, nil, nil, err
		}
		c.addr, c.br = req.URL.Host, bufio.NewReader(c.conn)
	}
	c.conn.SetDeadline(time.Now().Add(60 * time.Second))
	if err := req.Write(c.conn); err != nil {
		c.close()
		return 0, nil, nil, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		c.close()
		return 0, nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

// loopSpec configures one closed-loop run.
type loopSpec struct {
	clients int
	dur     time.Duration // stop claiming ops after this long; 0 = no time limit
	maxOps  int           // stop claiming ops at this cursor value; 0 = no count limit
	first   int           // cursor start, so phases of one run never reuse an index
	gen     func(i int) *op
	// verify checks one response against the op's expectation; a non-nil
	// error makes the op a failure, which contributes no latency sample.
	verify func(o *op, status int, h http.Header, body []byte) error
	// traced records client spans and sends the op's id as X-Dcs-Trace:
	// "bench-<tag>-<index>", the tag defaulting to the op's class.
	traced bool
	tag    string
	// keepTraces bounds how many ops' spans are retained (the newest win),
	// so they fit inside the servers' trace rings.
	keepTraces int
}

// closedLoop runs the spec to completion and returns the merged outcome.
// Operations in flight when the time limit passes finish and count; wall is
// the time from the first request to the last response.
func closedLoop(spec loopSpec) *phase {
	var cursor atomic.Int64
	cursor.Store(int64(spec.first))
	parts := make([]*phase, spec.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < spec.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &client{}
			defer c.close()
			p := &phase{}
			parts[ci] = p
			keep := 0
			if spec.traced {
				keep = (spec.keepTraces + spec.clients - 1) / spec.clients
			}
			for {
				i := int(cursor.Add(1)) - 1
				if spec.maxOps > 0 && i >= spec.first+spec.maxOps {
					return
				}
				if spec.dur > 0 && time.Since(start) >= spec.dur {
					return
				}
				o := spec.gen(i)
				var tr opTrace
				id := ""
				if spec.traced {
					tag := spec.tag
					if tag == "" {
						tag = o.class
					}
					id = fmt.Sprintf("bench-%s-%d", tag, i)
					tr = opTrace{ID: id, Name: o.class + " " + o.method + " " + o.url}
				}
				t0 := time.Now()
				status, h, body, err := c.do(o, id)
				t1 := time.Now()
				if err == nil {
					err = spec.verify(o, status, h, body)
				}
				t2 := time.Now()
				p.attempted++
				if err != nil {
					p.failed++
					if len(p.errs) < 3 {
						p.errs = append(p.errs, fmt.Sprintf("op %d %s %s: %v", i, o.method, o.url, err))
					}
					continue
				}
				// The latency a caller sees ends when the reply has been
				// read; verification is the harness's own cost.
				p.samples = append(p.samples, sample{class: o.class, lat: t1.Sub(t0)})
				if spec.traced {
					tr.Start, tr.Replied, tr.Verified = t0, t1, t2
					if len(p.traces) < keep {
						p.traces = append(p.traces, tr)
					} else if keep > 0 {
						p.traces[p.attempted%keep] = tr
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		out.merge(p)
		out.traces = append(out.traces, p.traces...)
	}
	out.wall = time.Since(start)
	return out
}

// percentile is the nearest-rank percentile of sorted xs: the smallest
// value with at least q percent of the samples at or below it. beyond is
// how many samples lie strictly above that rank — a percentile with fewer
// than ten samples beyond it is one the sample does not support.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// supported reports whether the percentile has at least ten samples beyond
// it, the rule for quoting a tail.
func supported(beyond int) bool { return beyond >= 10 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
