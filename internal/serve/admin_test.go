package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcbench/internal/serve"
	"dcbench/internal/tenant"
)

func adminAuth(token string) map[string]string {
	return map[string]string{"Authorization": "Bearer " + token}
}

// TestAdminPlane walks the key lifecycle through /admin/v1: create a key
// (secret minted and shown once), use it on the data plane, tighten its
// limits, read the usage report, revoke it — and verify the bootstrap
// token guards every step.
func TestAdminPlane(t *testing.T) {
	reg := openRegistry(t, tenant.KeyConfig{ID: "alice", Secret: "alice-key"})
	admin := httptest.NewServer(serve.AdminHandler(reg, "boot-token", quietLog))
	defer admin.Close()
	srv := serve.New(serve.Config{Options: testOptions(), Tenants: reg, Logger: quietLog})
	defer srv.Close()
	data := httptest.NewServer(srv.Handler())
	defer data.Close()

	// No token, wrong token, tenant key as token: all 401.
	for _, hdr := range []map[string]string{nil, adminAuth("wrong"), adminAuth("alice-key")} {
		resp, body := doJSON(t, admin, http.MethodGet, "/admin/v1/keys", nil, hdr)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("admin with %v = %d, want 401: %s", hdr, resp.StatusCode, body)
		}
		if code := errCode(t, resp, body); code != "unauthorized" {
			t.Fatalf("admin code = %q", code)
		}
	}

	// Create a key for bob; the secret is minted and returned once.
	resp, body := doJSON(t, admin, http.MethodPost, "/admin/v1/keys",
		tenant.KeyConfig{ID: "bob"}, adminAuth("boot-token"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var created tenant.KeyConfig
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(created.Secret, "dck_") {
		t.Fatalf("minted secret = %q, want a dck_ prefix", created.Secret)
	}

	// The minted key works on the data plane immediately.
	if resp, body := get(t, data, "/v1/workloads", bearer(created.Secret)); resp.StatusCode != http.StatusOK {
		t.Fatalf("minted key = %d: %s", resp.StatusCode, body)
	}

	// The key list shows both tenants and never a secret.
	_, body = doJSON(t, admin, http.MethodGet, "/admin/v1/keys", nil, adminAuth("boot-token"))
	for _, want := range []string{`"alice"`, `"bob"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("key list lacks %s: %s", want, body)
		}
	}
	for _, leak := range []string{"alice-key", created.Secret, "secret"} {
		if strings.Contains(string(body), leak) {
			t.Fatalf("key list leaks %q: %s", leak, body)
		}
	}

	// Creating over an existing key is refused — revoke-and-create is
	// the rotation story, silent replacement is not.
	if resp, _ := doJSON(t, admin, http.MethodPost, "/admin/v1/keys",
		tenant.KeyConfig{ID: "bob"}, adminAuth("boot-token")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("re-create = %d, want 400", resp.StatusCode)
	}

	// Tighten bob's limits; the snapshot echoes them.
	resp, body = doJSON(t, admin, http.MethodPut, "/admin/v1/keys/bob/limits",
		tenant.Limits{RatePerSec: 5, Burst: 10}, adminAuth("boot-token"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("set limits = %d: %s", resp.StatusCode, body)
	}
	var snap tenant.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Limits.RatePerSec != 5 || snap.Limits.Burst != 10 {
		t.Fatalf("limits after PUT = %+v", snap.Limits)
	}
	if resp, _ := doJSON(t, admin, http.MethodPut, "/admin/v1/keys/ghost/limits",
		tenant.Limits{}, adminAuth("boot-token")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("limits on unknown key = %d, want 404", resp.StatusCode)
	}

	// The usage report attributes bob's data-plane request.
	_, body = doJSON(t, admin, http.MethodGet, "/admin/v1/usage", nil, adminAuth("boot-token"))
	var usage struct {
		Tenants []tenant.Snapshot `json:"tenants"`
	}
	if err := json.Unmarshal(body, &usage); err != nil {
		t.Fatal(err)
	}
	var bobSeen bool
	for _, s := range usage.Tenants {
		if s.ID == "bob" {
			bobSeen = true
			if s.Usage.Requests != 1 {
				t.Fatalf("bob's usage = %+v, want 1 request", s.Usage)
			}
		}
	}
	if !bobSeen {
		t.Fatalf("usage report lacks bob: %s", body)
	}

	// Revoke bob: the data plane refuses the key on the next request.
	if resp, _ := doJSON(t, admin, http.MethodDelete, "/admin/v1/keys/bob", nil, adminAuth("boot-token")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("revoke = %d, want 204", resp.StatusCode)
	}
	resp, body = get(t, data, "/v1/workloads", bearer(created.Secret))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("revoked key = %d, want 401: %s", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, admin, http.MethodDelete, "/admin/v1/keys/ghost", nil, adminAuth("boot-token")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("revoke unknown = %d, want 404", resp.StatusCode)
	}
}

// TestAdminUnwrittenKeysFileIs500: when the keys file cannot be written,
// create, limits and revoke each answer 500 internal and the key list is
// what it was — the server failed, and nothing changed.
func TestAdminUnwrittenKeysFileIs500(t *testing.T) {
	path := writeKeysFile(t, tenant.KeyConfig{ID: "alice", Secret: "alice-key"})
	reg, err := tenant.Open(path, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(serve.AdminHandler(reg, "boot-token", quietLog))
	defer admin.Close()
	auth := adminAuth("boot-token")
	_, before := doJSON(t, admin, http.MethodGet, "/admin/v1/keys", nil, auth)
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/admin/v1/keys", tenant.KeyConfig{ID: "mallory"}},
		{http.MethodPut, "/admin/v1/keys/alice/limits", tenant.Limits{RatePerSec: 1}},
		{http.MethodDelete, "/admin/v1/keys/alice", nil},
	} {
		resp, body := doJSON(t, admin, m.method, m.path, m.body, auth)
		if resp.StatusCode != http.StatusInternalServerError || errCode(t, resp, body) != "internal" {
			t.Errorf("%s %s = %d %s, want 500 internal", m.method, m.path, resp.StatusCode, body)
		}
	}
	if _, after := doJSON(t, admin, http.MethodGet, "/admin/v1/keys", nil, auth); string(after) != string(before) {
		t.Errorf("failed mutations changed the key list\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestAdminPlaneDisabled: an empty bootstrap token disables the plane —
// an unauthenticated admin API is worse than none.
func TestAdminPlaneDisabled(t *testing.T) {
	reg := openRegistry(t, tenant.KeyConfig{ID: "alice", Secret: "alice-key"})
	admin := httptest.NewServer(serve.AdminHandler(reg, "", quietLog))
	defer admin.Close()
	for _, hdr := range []map[string]string{nil, adminAuth(""), adminAuth("anything")} {
		if resp, _ := doJSON(t, admin, http.MethodGet, "/admin/v1/usage", nil, hdr); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("disabled plane with %v = %d, want 401", hdr, resp.StatusCode)
		}
	}
}
