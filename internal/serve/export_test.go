package serve

import (
	"context"

	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

// SetServiceTimeForTest seeds the per-kind service-time estimate feeding
// the adaptive Retry-After hint, so tests can exercise the hint's scaling
// without running multi-second jobs.
func (s *Server) SetServiceTimeForTest(kind string, secs float64) {
	s.svcMu.Lock()
	s.svcSecs[kind] = secs
	s.svcMu.Unlock()
}

// HealthForTest is the /healthz document type, so tests can decode the
// probe and walk the metric declarations on its fields.
type HealthForTest = health

// FlightLenForTest reports how many rendered bodies the server holds,
// retained or in flight.
func (s *Server) FlightLenForTest() int {
	n := s.flight.Len()
	for _, rd := range s.reads.all() {
		if rd.body.Load() != nil {
			n++
		}
	}
	return n
}

// ETagForTest returns the validator the server sends for key.
func (s *Server) ETagForTest(key string) string { return s.etag(key) }

// DropComputeCachesForTest gives the server a fresh sweep engine and
// cluster cache over b and c, as a restart would, but keeps its rendered
// bodies: a later render has to go through b and c again, so a test that
// counts their traffic can tell a retained body from a re-render. Call it
// only while no request is in flight.
func (s *Server) DropComputeCachesForTest(b sweep.MemoBackend, c workloads.StatsBackend) {
	s.engine = sweep.NewEngine()
	s.engine.SetMemoBackend(b)
	s.opts.Engine = s.engine
	s.opts.Cluster = workloads.NewStatsCache(c)
}

// ClusterCellForTest runs run as key's cluster cell through the server's
// cluster cache, the way a cluster job's runner does, so a test can drive a
// cell that no shipped workload would (one that panics, say).
func (s *Server) ClusterCellForTest(ctx context.Context, key workloads.StatsKey, run func(context.Context) (*workloads.Stats, error)) error {
	_, err := s.opts.Cluster.Do(ctx, key, run)
	return err
}

// all lists the closed set's members.
func (rs *readSet) all() []*read {
	pairs := []readPair{rs.workloads}
	pairs = append(pairs, rs.figures[:]...)
	pairs = append(pairs, rs.tables[:]...)
	for _, p := range rs.counters {
		pairs = append(pairs, p)
	}
	var out []*read
	for _, p := range pairs {
		for _, rd := range []*read{p.json, p.csv} {
			if rd != nil {
				out = append(out, rd)
			}
		}
	}
	return out
}
