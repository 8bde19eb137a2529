package serve

import (
	"io"
	"net/http"
	"strconv"

	"dcbench/internal/peer"
	"dcbench/internal/replica"
)

// This file is the peer-facing side of store replication (see
// internal/replica): ingest of fan-out pushes, digest export for
// anti-entropy, and raw record export. The endpoints live on the service
// port under /v1/replica/* — not probes, so the tenant middleware
// authenticates them like any API call; a keyed cluster admits peers by
// the same service key the dispatch layer presents (-dispatch-api-key).

// registerReplicaRoutes mounts the replication endpoints. They are
// registered unconditionally (the route table should not depend on
// wiring) and answer 404 not_found on a storeless node, which is also
// what a replicator treats a non-replicating peer as: nothing to pull.
func (s *Server) registerReplicaRoutes() {
	s.mux.HandleFunc("POST /v1/replica/records", s.handleReplicaPush)
	s.mux.HandleFunc("GET /v1/replica/records/{addr}", s.handleReplicaRecord)
	s.mux.HandleFunc("GET /v1/replica/digest", s.handleReplicaDigest)
}

// handleReplicaPush adopts one pushed record. The store verifies the
// embedded checksum and re-derives the content address from the record's
// own kind and key, so a mangled or misdirected push is a 400, never a
// stored record; adoption is idempotent, so a retried push that already
// landed is the same 204 as the first.
func (s *Server) handleReplicaPush(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, r, http.StatusNotFound, codeNotFound, "this node has no result store")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, peer.MaxBody))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "unreadable record body")
		return
	}
	if _, err := s.store.AdoptRecord(data); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "record failed verification")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaRecord serves one record's persisted bytes verbatim — what
// a peer adopts after a digest mismatch.
func (s *Server) handleReplicaRecord(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, r, http.StatusNotFound, codeNotFound, "this node has no result store")
		return
	}
	addr := r.PathValue("addr")
	data, ok, err := s.store.GetRecord(addr)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "no record at "+addr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// handleReplicaDigest serves the anti-entropy view: without a query, every
// shard's digest plus the store totals; with ?shard=n, that shard's
// sorted record addresses for set differencing.
func (s *Server) handleReplicaDigest(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, r, http.StatusNotFound, codeNotFound, "this node has no result store")
		return
	}
	if q := queryGet(r.URL.RawQuery, "shard"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, codeBadRequest, "shard must be an integer")
			return
		}
		addrs, err := s.store.ShardAddrs(n)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, replica.AddrsResponse{Shard: n, Addrs: addrs})
		return
	}
	writeJSON(w, http.StatusOK, replica.DigestResponse{
		Shards:  s.store.ShardDigests(),
		Records: int64(s.store.Len()),
		Bytes:   s.store.Bytes(),
	})
}
