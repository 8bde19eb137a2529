package tenant

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dcbench/internal/obs"
)

// KeyConfig is one entry of the keys file: the durable form of a
// tenant's key. The file is JSON on purpose — ops edit it by hand, the
// admin plane rewrites it atomically, and both produce the same bytes:
//
//	{
//	  "keys": [
//	    {"id": "alice", "secret": "dck_...", "limits": {"rate_per_sec": 50}},
//	    {"id": "bob", "secret": "dck_...", "disabled": true}
//	  ]
//	}
type KeyConfig struct {
	// ID must pass obs.ValidID — 1..64 bytes of the trace-id alphabet
	// [A-Za-z0-9_-] — so ids are safe in URLs, metric labels and log
	// lines without quoting.
	ID     string `json:"id"`
	Secret string `json:"secret"`
	// Disabled revokes the key without deleting the entry: the tenant's
	// usage history survives for the admin report, but the secret stops
	// authenticating.
	Disabled bool   `json:"disabled,omitempty"`
	Limits   Limits `json:"limits,omitempty"`
}

// keysFile is the on-disk shape.
type keysFile struct {
	Keys []KeyConfig `json:"keys"`
}

// reloadPoll is how often Authenticate is willing to stat the keys file:
// a hot-path request never waits on more than one Stat every poll
// interval, and a hand-edited file is live within it (SIGHUP is
// immediate).
const reloadPoll = 2 * time.Second

// maxTenants bounds the attribution table: hostile or garbage
// X-Dcs-Tenant headers must not grow per-tenant state without bound.
// Keyed tenants (from the file) are exempt — the file is the bound.
const maxTenants = 4096

// secretBytes sizes generated secrets (hex-encoded, so twice this many
// characters on the wire).
const secretBytes = 24

// Authentication errors. Both map to 401 unauthorized at the HTTP layer;
// the split exists for logs and tests, not for the wire — a prober must
// not learn whether a key exists.
var (
	errNoKey  = errors.New("missing API key (Authorization: Bearer or X-Dcs-Api-Key)")
	errBadKey = errors.New("unknown or revoked API key")
)

// Registry is the tenant table: the keyed tenants loaded from a keys
// file plus attribution-only tenants created for ids forwarded to a
// server without one. Safe for concurrent use.
type Registry struct {
	log *slog.Logger
	now func() time.Time

	// enabled mirrors "a keys file is configured" for the request hot
	// path: one atomic load decides whether auth applies at all.
	enabled atomic.Bool

	mu        sync.Mutex
	path      string
	tenants   map[string]*Tenant
	order     []string // stable iteration for constant-time auth and sorted reports
	mtime     time.Time
	checkedAt time.Time
}

// NewRegistry returns an attribution-only registry: no keys file, auth
// disabled, but forwarded tenant ids still accumulate per-tenant usage
// (the worker side of the dispatch hop).
func NewRegistry(log *slog.Logger) *Registry {
	if log == nil {
		log = slog.Default()
	}
	return &Registry{log: log, now: time.Now, tenants: make(map[string]*Tenant)}
}

// Open loads the keys file at path and returns a Registry enforcing it.
// The file must exist and parse — a typo in the auth config must fail
// the boot loudly, not silently run an open server.
func Open(path string, log *slog.Logger) (*Registry, error) {
	r := NewRegistry(log)
	r.path = path
	cfgs, mtime, err := readKeysFile(path)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.applyLocked(cfgs)
	r.mtime = mtime
	r.checkedAt = r.now()
	r.mu.Unlock()
	r.enabled.Store(true)
	return r, nil
}

// setClock overrides the registry's time source — tests drive bucket
// refill and reload polling with a fake clock.
func (r *Registry) setClock(now func() time.Time) { r.now = now }

// Enabled reports whether API-key auth is on (a keys file is loaded).
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// readKeysFile parses and validates one keys file.
func readKeysFile(path string) ([]KeyConfig, time.Time, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("keys file: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("keys file: %w", err)
	}
	var kf keysFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return nil, time.Time{}, fmt.Errorf("keys file %s: %w", path, err)
	}
	seen := make(map[string]bool, len(kf.Keys))
	for _, k := range kf.Keys {
		if !obs.ValidID(k.ID) {
			return nil, time.Time{}, fmt.Errorf("keys file %s: invalid tenant id %q", path, k.ID)
		}
		if k.Secret == "" {
			return nil, time.Time{}, fmt.Errorf("keys file %s: tenant %q has no secret", path, k.ID)
		}
		if seen[k.ID] {
			return nil, time.Time{}, fmt.Errorf("keys file %s: duplicate tenant id %q", path, k.ID)
		}
		seen[k.ID] = true
	}
	return kf.Keys, fi.ModTime(), nil
}

// applyLocked installs a parsed keys file: existing tenants keep their
// accumulated usage (a reload is a config change, not an amnesty), keys
// that vanished from the file stop authenticating.
func (r *Registry) applyLocked(cfgs []KeyConfig) {
	seen := make(map[string]bool, len(cfgs))
	for _, c := range cfgs {
		r.installLocked(c)
		seen[c.ID] = true
	}
	for id, t := range r.tenants {
		if t.isKeyed() && !seen[id] {
			t.clearKey()
		}
	}
}

// installLocked installs one keys-file entry, creating the tenant if it
// does not exist (or upgrading an attribution-only one in place).
func (r *Registry) installLocked(c KeyConfig) {
	t, ok := r.tenants[c.ID]
	if !ok {
		t = newTenant(c.ID)
		r.tenants[c.ID] = t
		r.order = append(r.order, c.ID)
	}
	t.setKey(c.Secret, c.Disabled, c.Limits)
}

// reload re-reads the keys file now. On a parse error the previous keys
// stay in force — a half-written edit must not lock every tenant out (or
// let everyone in).
func (r *Registry) reload() error {
	r.mu.Lock()
	path := r.path
	r.mu.Unlock()
	if path == "" {
		return nil
	}
	cfgs, mtime, err := readKeysFile(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.applyLocked(cfgs)
	r.mtime = mtime
	r.checkedAt = r.now()
	r.mu.Unlock()
	r.log.Info("tenant keys reloaded", "path", path, "keys", len(cfgs))
	return nil
}

// maybeReload stats the keys file (at most once per reloadPoll) and
// reloads when its mtime moved — the hands-off half of hot reload;
// WatchSIGHUP is the immediate half.
func (r *Registry) maybeReload() {
	r.mu.Lock()
	path := r.path
	if path == "" || r.now().Sub(r.checkedAt) < reloadPoll {
		r.mu.Unlock()
		return
	}
	r.checkedAt = r.now()
	mtime := r.mtime
	r.mu.Unlock()
	fi, err := os.Stat(path)
	if err != nil || !fi.ModTime().After(mtime) {
		return
	}
	if err := r.reload(); err != nil {
		r.log.Error("tenant keys reload failed; previous keys stay in force", "path", path, "err", err)
	}
}

// WatchSIGHUP reloads the keys file on SIGHUP until ctx ends — the
// conventional "re-read your config" signal, so key rotation needs no
// restart and no admin-plane round trip.
func (r *Registry) WatchSIGHUP(ctx context.Context) {
	if !r.Enabled() {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	go func() {
		defer signal.Stop(ch)
		for {
			select {
			case <-ctx.Done():
				return
			case <-ch:
				if err := r.reload(); err != nil {
					r.log.Error("tenant keys reload failed; previous keys stay in force", "err", err)
				}
			}
		}
	}()
}

// Authenticate resolves the request's API key (Authorization: Bearer
// first, X-Dcs-Api-Key as the curl-friendly fallback) to its tenant.
// The presented secret is digested once and compared against every
// tenant — constant work per tenant regardless of match position,
// disabled state or keyedness, so response timing leaks nothing about
// the key table.
func (r *Registry) Authenticate(req *http.Request) (*Tenant, error) {
	r.maybeReload()
	secret := bearerToken(req)
	if secret == "" {
		return nil, errNoKey
	}
	digest := sha256.Sum256([]byte(secret))
	r.mu.Lock()
	list := make([]*Tenant, 0, len(r.order))
	for _, id := range r.order {
		list = append(list, r.tenants[id])
	}
	r.mu.Unlock()
	var found *Tenant
	usable := false
	for _, t := range list {
		if m, u := t.matches(&digest); m && found == nil {
			found, usable = t, u
		}
	}
	if found == nil || !usable {
		return nil, errBadKey
	}
	return found, nil
}

// bearerToken extracts a request's presented credential: the
// Authorization: Bearer value, else the X-Dcs-Api-Key header.
func bearerToken(req *http.Request) string {
	if auth := req.Header.Get("Authorization"); auth != "" {
		if tok, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
		return ""
	}
	return strings.TrimSpace(req.Header.Get("X-Dcs-Api-Key"))
}

// Attribute returns (creating if needed) the tenant for a forwarded id —
// accounting, on a server without a keys file, for jobs the dispatch hop
// labelled with X-Dcs-Tenant. Invalid ids and table overflow return nil:
// the work still runs, just unattributed.
func (r *Registry) Attribute(id string) *Tenant {
	if !obs.ValidID(id) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[id]; ok {
		return t
	}
	if len(r.tenants) >= maxTenants {
		return nil
	}
	t := newTenant(id)
	r.tenants[id] = t
	r.order = append(r.order, id)
	return t
}

// Lookup returns the tenant with this id, if any.
func (r *Registry) Lookup(id string) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Allow spends one request against t's budget at the registry's clock.
// Nil t always allows.
func (r *Registry) Allow(t *Tenant) (ok bool, retryAfter time.Duration) {
	return t.allow(r.now())
}

// Snapshots reports every tenant, sorted by id — the /healthz block, the
// admin usage report, and the stable ordering of the dcserved_tenant_*
// metric families.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	list := make([]*Tenant, 0, len(r.order))
	for _, id := range r.order {
		list = append(list, r.tenants[id])
	}
	r.mu.Unlock()
	out := make([]Snapshot, 0, len(list))
	for _, t := range list {
		out = append(out, t.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CreateKey mints (or re-keys) a tenant through the admin plane and
// persists the keys file. An empty Secret generates one; the returned
// KeyConfig carries it — the only time a secret leaves the registry.
// Creating over an existing keyed tenant is refused (revoke first);
// creating over an attribution-only tenant upgrades it in place, keeping
// its usage.
func (r *Registry) CreateKey(cfg KeyConfig) (KeyConfig, error) {
	if !obs.ValidID(cfg.ID) {
		return KeyConfig{}, fmt.Errorf("invalid tenant id %q", cfg.ID)
	}
	if cfg.Secret == "" {
		buf := make([]byte, secretBytes)
		if _, err := rand.Read(buf); err != nil {
			return KeyConfig{}, err
		}
		cfg.Secret = "dck_" + hex.EncodeToString(buf)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.path == "" {
		return KeyConfig{}, errors.New("no keys file configured (-keys-file)")
	}
	if t, ok := r.tenants[cfg.ID]; ok && t.isKeyed() {
		return KeyConfig{}, fmt.Errorf("tenant %q already has a key", cfg.ID)
	}
	r.installLocked(cfg)
	if err := r.persistLocked(); err != nil {
		return KeyConfig{}, err
	}
	return cfg, nil
}

// RevokeKey disables a tenant's key and persists. The entry stays in the
// file (usage history survives); re-enabling is an edit or re-create.
func (r *Registry) RevokeKey(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok || !t.isKeyed() {
		return fmt.Errorf("no key for tenant %q", id)
	}
	t.mu.Lock()
	t.disabled = true
	t.mu.Unlock()
	return r.persistLocked()
}

// SetKeyLimits replaces a keyed tenant's limits and persists.
func (r *Registry) SetKeyLimits(id string, l Limits) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok || !t.isKeyed() {
		return fmt.Errorf("no key for tenant %q", id)
	}
	t.setLimits(l)
	return r.persistLocked()
}

// persistLocked rewrites the keys file from the keyed tenants, atomically
// and durably (temp file + fsync + rename + directory fsync, the store's
// own durability idiom — a rename alone survives a crash of the process
// but not necessarily of the machine), and adopts the new mtime so the
// poll loop does not immediately re-read our own write.
func (r *Registry) persistLocked() error {
	if r.path == "" {
		return errors.New("no keys file configured (-keys-file)")
	}
	var kf keysFile
	for _, id := range r.order {
		if cfg, ok := r.tenants[id].keyConfig(); ok {
			kf.Keys = append(kf.Keys, cfg)
		}
	}
	sort.Slice(kf.Keys, func(i, j int) bool { return kf.Keys[i].ID < kf.Keys[j].ID })
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(r.path)
	tmp, err := os.CreateTemp(dir, ".keys-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o600); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), r.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Best-effort directory sync so the rename itself is on disk; some
	// filesystems refuse to sync directories, which is not worth failing a
	// successfully persisted mutation over.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	if fi, err := os.Stat(r.path); err == nil {
		r.mtime = fi.ModTime()
	}
	return nil
}
