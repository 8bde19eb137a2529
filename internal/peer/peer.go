// Package peer is the one way a node addresses the other nodes of its
// cluster: the address-list flag value, the rendezvous order over a set of
// addresses, and the bounded, authenticated, traced HTTP call. Dispatch
// (-workers) and replication (-replicas) both rank by a record's content
// address (store.Kind.Addr) through Rank, so the workers a front-end reads
// a key from are the nodes its record was pushed to — provided both flags
// spell a node's address identically.
package peer

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"dcbench/internal/obs"
	"dcbench/internal/tenant"
)

// MaxBody bounds every body read off the peer plane, request or response:
// counters records are a few KB and cluster records smaller still.
const MaxBody = 8 << 20

// List is a comma-separated address list flag value (-workers, -replicas).
type List []string

func (l *List) String() string { return strings.Join(*l, ",") }

func (l *List) Set(v string) error {
	*l = nil
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			*l = append(*l, a)
		}
	}
	return nil
}

// Rank orders addrs for a record address by rendezvous (highest-random-
// weight) hashing. Each address's score depends on nothing but itself and
// the record, so every node computes the same order without coordination,
// and removing an address leaves the others' relative order unchanged: a
// node's rank over the *other* nodes is the cluster-wide order minus
// itself.
func Rank(addrs []string, recordAddr string) []string {
	score := make(map[string]uint64, len(addrs))
	for _, a := range addrs {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s", a, recordAddr)
		score[a] = h.Sum64()
	}
	out := append([]string(nil), addrs...)
	sort.Slice(out, func(i, j int) bool {
		if si, sj := score[out[i]], score[out[j]]; si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Client makes peer HTTP calls. The zero value is usable: no key, no
// timeout beyond the caller's context.
type Client struct {
	// APIKey, when non-empty, is presented as `Authorization: Bearer`.
	APIKey string
	// Timeout, when positive, bounds each call, connection to last byte.
	Timeout time.Duration

	http http.Client
}

// Do sends one request and returns the response status, headers and body
// (read up to MaxBody). The trace and tenant ids in ctx ride along as
// X-Dcs-Trace and X-Dcs-Tenant, so the peer's spans land under the
// caller's trace id and its accounting names the originating tenant.
func (c *Client) Do(ctx context.Context, method, url string, body []byte) (int, http.Header, []byte, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	if id := obs.From(ctx).ID(); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	if id := tenant.IDFrom(ctx); id != "" {
		req.Header.Set(tenant.Header, id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBody))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}
