package tenant

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

// writeKeys writes a keys file and returns its path.
func writeKeys(t *testing.T, dir string, keys ...KeyConfig) string {
	t.Helper()
	path := filepath.Join(dir, "keys.json")
	data, err := json.Marshal(keysFile{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAuthenticate(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir,
		KeyConfig{ID: "alice", Secret: "alice-secret"},
		KeyConfig{ID: "bob", Secret: "bob-secret", Disabled: true},
	)
	reg, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Enabled() {
		t.Fatal("registry with a keys file should be enabled")
	}

	cases := []struct {
		name, header, value string
		wantTenant          string
		wantErr             error
	}{
		{"bearer ok", "Authorization", "Bearer alice-secret", "alice", nil},
		{"api key header ok", "X-Dcs-Api-Key", "alice-secret", "alice", nil},
		{"missing", "", "", "", errNoKey},
		{"wrong secret", "Authorization", "Bearer nope", "", errBadKey},
		{"revoked key", "Authorization", "Bearer bob-secret", "", errBadKey},
		{"non-bearer scheme", "Authorization", "Basic alice-secret", "", errNoKey},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", "/v1/workloads", nil)
			if tc.header != "" {
				req.Header.Set(tc.header, tc.value)
			}
			tn, err := reg.Authenticate(req)
			if err != tc.wantErr {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tn.ID() != tc.wantTenant {
				t.Fatalf("tenant = %q, want %q", tn.ID(), tc.wantTenant)
			}
		})
	}
}

func TestBucketRefill(t *testing.T) {
	// A fake clock drives the bucket deterministically: 2 req/s, burst 2.
	now := time.Unix(1000, 0)
	tn := newTenant("alice")
	tn.setLimits(Limits{RatePerSec: 2, Burst: 2})

	steps := []struct {
		advance time.Duration
		want    bool
	}{
		{0, true},                       // burst token 1
		{0, true},                       // burst token 2
		{0, false},                      // bucket dry
		{250 * time.Millisecond, false}, // 0.5 tokens — still short
		{250 * time.Millisecond, true},  // refilled to 1
		{0, false},                      // spent again
		{5 * time.Second, true},         // long idle refills to burst, not beyond
		{0, true},
		{0, false}, // ...so exactly burst(2) tokens accumulated
	}
	for i, st := range steps {
		now = now.Add(st.advance)
		ok, retry := tn.allow(now)
		if ok != st.want {
			t.Fatalf("step %d: Allow = %v, want %v", i, ok, st.want)
		}
		if !ok && st.want == false && retry <= 0 {
			t.Fatalf("step %d: rate denial should carry a positive retryAfter, got %v", i, retry)
		}
	}
	u := tn.Snapshot().Usage
	if u.Requests != 5 || u.RateLimited != 4 {
		t.Fatalf("usage = %+v, want 5 requests / 4 rate_limited", u)
	}
}

func TestRequestQuota(t *testing.T) {
	now := time.Unix(1000, 0)
	tn := newTenant("alice")
	tn.setLimits(Limits{MaxRequests: 2})
	for i := 0; i < 2; i++ {
		if ok, _ := tn.allow(now); !ok {
			t.Fatalf("request %d should pass", i)
		}
	}
	ok, retry := tn.allow(now)
	if ok {
		t.Fatal("third request should exceed MaxRequests")
	}
	if retry != 0 {
		t.Fatalf("a spent cumulative quota has no retry horizon, got %v", retry)
	}
	if u := tn.Snapshot().Usage; u.QuotaDenied != 1 {
		t.Fatalf("usage = %+v, want 1 quota_denied", u)
	}
}

// TestRequestQuotaUnderConcurrency races goroutines against a small
// MaxRequests, round after round on fresh tenants: the quota's check and
// its charge are one step, so concurrent requests never pass it together.
func TestRequestQuotaUnderConcurrency(t *testing.T) {
	const (
		rounds      = 500
		workers     = 16
		maxRequests = 5
	)
	now := time.Unix(1000, 0)
	for r := 0; r < rounds; r++ {
		tn := newTenant("alice")
		tn.setLimits(Limits{MaxRequests: maxRequests})
		var admitted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if ok, _ := tn.allow(now); ok {
					admitted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := admitted.Load(); got > maxRequests {
			t.Fatalf("round %d: %d of %d concurrent requests admitted, MaxRequests is %d", r, got, workers, maxRequests)
		}
		if u := tn.Snapshot().Usage; u.Requests > maxRequests || u.Requests+u.QuotaDenied != workers {
			t.Fatalf("round %d: usage = %+v, want at most %d requests and %d decisions", r, u, maxRequests, workers)
		}
	}
}

func TestJobQuotas(t *testing.T) {
	tn := newTenant("alice")
	tn.setLimits(Limits{MaxJobs: map[string]int64{"counters": 1}, MaxInstructions: 100})
	if !tn.CheckJob("counters", 60) {
		t.Fatal("first counters job should fit")
	}
	tn.ChargeJob("counters", 60)
	if tn.CheckJob("counters", 10) {
		t.Fatal("second counters job should exceed MaxJobs")
	}
	// Cluster jobs are not capped by kind, but instructions still are.
	if !tn.CheckJob("cluster", 40) {
		t.Fatal("cluster job within the instruction budget should fit")
	}
	if tn.CheckJob("cluster", 41) {
		t.Fatal("41 more instructions should exceed MaxInstructions=100 after 60 spent")
	}
	u := tn.Snapshot().Usage
	if u.Jobs["counters"] != 1 || u.Instructions != 60 || u.QuotaDenied != 2 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestNilTenantIsNoOp(t *testing.T) {
	var tn *Tenant
	if ok, _ := tn.allow(time.Now()); !ok {
		t.Fatal("nil tenant must allow")
	}
	if !tn.CheckJob("counters", 1e9) {
		t.Fatal("nil tenant must pass job checks")
	}
	tn.ChargeJob("counters", 1)
	if tn.ID() != "" {
		t.Fatal("nil tenant id must be empty")
	}
	ctx := With(context.Background(), nil)
	if From(ctx) != nil || IDFrom(ctx) != "" {
		t.Fatal("nil tenant must not ride the context")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tn := newTenant("alice")
	ctx := With(context.Background(), tn)
	if From(ctx) != tn || IDFrom(ctx) != "alice" {
		t.Fatal("tenant should round-trip through the context")
	}
}

func TestReloadPreservesUsage(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir, KeyConfig{ID: "alice", Secret: "s1"})
	reg, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := reg.Lookup("alice")
	reg.Allow(alice)
	reg.Allow(alice)

	// Rotate alice's secret, revoke nothing, add carol, drop nobody.
	writeKeys(t, dir, KeyConfig{ID: "alice", Secret: "s2"}, KeyConfig{ID: "carol", Secret: "s3"})
	if err := reg.reload(); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Authorization", "Bearer s1")
	if _, err := reg.Authenticate(req); err != errBadKey {
		t.Fatalf("old secret should stop authenticating, got %v", err)
	}
	req.Header.Set("Authorization", "Bearer s2")
	tn, err := reg.Authenticate(req)
	if err != nil || tn.ID() != "alice" {
		t.Fatalf("rotated secret: tenant %q err %v", tn.ID(), err)
	}
	if tn != alice {
		t.Fatal("reload must keep the same tenant object (usage continuity)")
	}
	if u := tn.Snapshot().Usage; u.Requests != 2 {
		t.Fatalf("usage lost across reload: %+v", u)
	}
	req.Header.Set("Authorization", "Bearer s3")
	if tn, err := reg.Authenticate(req); err != nil || tn.ID() != "carol" {
		t.Fatalf("new key: tenant %q err %v", tn.ID(), err)
	}
}

func TestReloadDropsVanishedKeys(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir,
		KeyConfig{ID: "alice", Secret: "s1"}, KeyConfig{ID: "bob", Secret: "s2"})
	reg, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	writeKeys(t, dir, KeyConfig{ID: "alice", Secret: "s1"})
	if err := reg.reload(); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Authorization", "Bearer s2")
	if _, err := reg.Authenticate(req); err != errBadKey {
		t.Fatalf("vanished key should stop authenticating, got %v", err)
	}
	// Bob's usage history is still reportable (attribution-only now).
	snaps := reg.Snapshots()
	ids := map[string]Snapshot{}
	for _, s := range snaps {
		ids[s.ID] = s
	}
	if s, ok := ids["bob"]; !ok || s.Keyed {
		t.Fatalf("bob should survive as attribution-only, got %+v", snaps)
	}
}

func TestMtimeReload(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir, KeyConfig{ID: "alice", Secret: "s1"})
	reg, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	// A fake clock jumps past the poll interval; the rewritten file must
	// be picked up on the next Authenticate without SIGHUP or reload.
	now := time.Now()
	reg.setClock(func() time.Time { return now })
	writeKeys(t, dir, KeyConfig{ID: "alice", Secret: "s2"})
	// Ensure the file's mtime moved even on coarse filesystems.
	future := time.Now().Add(2 * time.Second)
	os.Chtimes(path, future, future)
	now = now.Add(2 * reloadPoll)

	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Authorization", "Bearer s2")
	tn, err := reg.Authenticate(req)
	if err != nil || tn.ID() != "alice" {
		t.Fatalf("mtime reload should pick up the new secret: tenant %q err %v", tn.ID(), err)
	}
}

func TestBadReloadKeepsOldKeys(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir, KeyConfig{ID: "alice", Secret: "s1"})
	reg, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.reload(); err == nil {
		t.Fatal("reloading a corrupt file should error")
	}
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Authorization", "Bearer s1")
	if _, err := reg.Authenticate(req); err != nil {
		t.Fatalf("old keys must stay in force after a bad reload, got %v", err)
	}
}

func TestAttribute(t *testing.T) {
	reg := NewRegistry(quietLog())
	if reg.Enabled() {
		t.Fatal("registry without a keys file must not enable auth")
	}
	tn := reg.Attribute("alice")
	if tn == nil || tn.ID() != "alice" {
		t.Fatal("Attribute should create the tenant")
	}
	if reg.Attribute("alice") != tn {
		t.Fatal("Attribute should return the same tenant")
	}
	if reg.Attribute("not a valid id!") != nil {
		t.Fatal("invalid ids must not be attributed")
	}
	tn.ChargeJob("counters", 42)
	snaps := reg.Snapshots()
	if len(snaps) != 1 || snaps[0].Keyed || snaps[0].Usage.Jobs["counters"] != 1 {
		t.Fatalf("snapshot = %+v", snaps)
	}
}

func TestCreateRevokeAndPersist(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir, KeyConfig{ID: "alice", Secret: "s1"})
	reg, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	created, err := reg.CreateKey(KeyConfig{ID: "bob", Limits: Limits{RatePerSec: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if created.Secret == "" {
		t.Fatal("CreateKey should generate a secret")
	}
	if _, err := reg.CreateKey(KeyConfig{ID: "bob"}); err == nil {
		t.Fatal("re-creating an existing key must be refused")
	}
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Authorization", "Bearer "+created.Secret)
	if tn, err := reg.Authenticate(req); err != nil || tn.ID() != "bob" {
		t.Fatalf("minted key should authenticate: %q %v", tn.ID(), err)
	}
	if err := reg.RevokeKey("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Authenticate(req); err != errBadKey {
		t.Fatalf("revoked key should stop authenticating, got %v", err)
	}
	if err := reg.SetKeyLimits("alice", Limits{MaxRequests: 7}); err != nil {
		t.Fatal(err)
	}

	// Everything above must be durable: a fresh registry over the same
	// file sees the created (revoked) bob and alice's new limits.
	reg2, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	alice, ok := reg2.Lookup("alice")
	if !ok || alice.Snapshot().Limits.MaxRequests != 7 {
		t.Fatalf("persisted limits lost: %+v", alice.Snapshot().Limits)
	}
	bob, ok := reg2.Lookup("bob")
	if !ok || !bob.Snapshot().Disabled {
		t.Fatal("persisted revocation lost")
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.json"), quietLog()); err == nil {
		t.Fatal("missing keys file must fail Open")
	}
	path := writeKeys(t, dir, KeyConfig{ID: "alice", Secret: ""})
	if _, err := Open(path, quietLog()); err == nil {
		t.Fatal("empty secret must fail validation")
	}
	path = writeKeys(t, dir, KeyConfig{ID: "a", Secret: "x"}, KeyConfig{ID: "a", Secret: "y"})
	if _, err := Open(path, quietLog()); err == nil {
		t.Fatal("duplicate ids must fail validation")
	}
}
