package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/replica"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// peerURL is every request a replicator may send a peer during
// anti-entropy: the digest, one shard's address list, one record.
var peerURL = regexp.MustCompile(`^/v1/replica/(digest(\?shard=-?[0-9]+)?|records/[0-9a-f]{16})$`)

// fakePeer serves fixed digest, address-list and record bodies and logs
// every request URI it is sent.
type fakePeer struct {
	mu                    sync.Mutex
	digest, addrs, record []byte
	uris                  []string
}

func (p *fakePeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.uris = append(p.uris, r.Method+" "+r.RequestURI)
	switch {
	case r.URL.Path == "/v1/replica/digest" && r.URL.Query().Has("shard"):
		w.Write(p.addrs)
	case r.URL.Path == "/v1/replica/digest":
		w.Write(p.digest)
	default:
		w.Write(p.record)
	}
}

// FuzzDigestResponse points one anti-entropy round at a peer serving
// arbitrary digest, address-list and record bodies: nothing panics, the
// replicator requests nothing but the digest, a shard's addresses and
// /v1/replica/records/<16 hex digits>, and whatever it adopts is the
// served record, checksummed.
func FuzzDigestResponse(f *testing.F) {
	peer := &fakePeer{}
	ts := httptest.NewServer(peer)
	defer ts.Close()

	wl, err := core.ByName("Sort")
	if err != nil {
		f.Fatal(err)
	}
	key := sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: 7, MaxInstrs: 1000}
	rec, err := store.EncodeCounters(key, &uarch.Counters{Cycles: 42, Instructions: 1000})
	if err != nil {
		f.Fatal(err)
	}
	addr, err := store.CountersAddr(key)
	if err != nil {
		f.Fatal(err)
	}
	digest := []byte(`{"shards":[{"shard":0,"count":1,"digest":"x"}],"records":1,"bytes":10}`)
	addrs := func(as ...string) []byte {
		b, _ := json.Marshal(replica.AddrsResponse{Addrs: as})
		return b
	}
	f.Add(digest, addrs(addr), rec)
	f.Add(digest, addrs("../../healthz", addr+"?x=1", "0123456789ABCDEF", addr[:15]+"/", addr[:15]+"?", "../../v1/healthz", "", addr+"/..", "%30123456789abcd"), rec)
	f.Add(digest, addrs(addr), rec[:len(rec)/2])
	f.Add(digest, addrs(addr), bytes.Replace(rec, []byte(`"Cycles":42`), []byte(`"Cycles":41`), 1))
	f.Add([]byte(`{"shards":[{"shard":-1,"count":1},{"shard":99,"count":1},{"shard":0,"count":0}]}`), addrs(addr), rec)
	f.Add([]byte(`{"shards":null,"records":-5}`), []byte(`{"addrs":[1,2]}`), []byte(`{}`))
	f.Add([]byte("not json"), []byte("null"), []byte(nil))

	f.Fuzz(func(t *testing.T, digest, addrs, record []byte) {
		peer.mu.Lock()
		peer.digest, peer.addrs, peer.record, peer.uris = digest, addrs, record, nil
		peer.mu.Unlock()

		st, err := store.OpenWith(t.TempDir(), store.OpenOptions{Log: quietLog})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		r, err := replica.New(replica.Options{Peers: []string{ts.Listener.Addr().String()},
			Interval: -1, Timeout: 5 * time.Second}, st, quietLog)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.RunAntiEntropy(context.Background())

		peer.mu.Lock()
		uris := peer.uris
		peer.mu.Unlock()
		for _, u := range uris {
			if uri, ok := strings.CutPrefix(u, "GET "); !ok || !peerURL.MatchString(uri) {
				t.Fatalf("the replicator sent %q", u)
			}
		}
		addrs0, err := st.ShardAddrs(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs0 {
			got, ok, err := st.GetRecord(a)
			if err != nil || !ok || !bytes.Equal(got, record) || !checksummedRecord(record) {
				t.Fatalf("adopted %s (ok=%v err=%v), which is not the served checksummed record", a, ok, err)
			}
		}
	})
}

// checksummedRecord restates the record contract independently of the
// store's codec: the current schema, and an fnv64a over (schema, kind,
// key, payload) matching the embedded sum.
func checksummedRecord(data []byte) bool {
	var rec struct {
		Schema       int
		Kind, Sum    string
		Key, Payload json.RawMessage
	}
	if json.Unmarshal(data, &rec) != nil || rec.Schema != store.SchemaVersion {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s", store.SchemaVersion, rec.Kind, rec.Key, rec.Payload)
	return rec.Sum == fmt.Sprintf("%016x", h.Sum64())
}
