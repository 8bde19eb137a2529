// Package tenant is the identity layer of the multi-tenant front door:
// API keys, per-tenant token-bucket rate limits, cumulative quotas, and
// the usage accounting the admin plane reports.
//
// A Registry loads API keys from a JSON keys file (hot-reloaded on
// SIGHUP or mtime change), authenticates requests by constant-time
// digest comparison, and tracks one Tenant per key. A server without a
// keys file enforces nothing; there, work that arrives over the dispatch
// hop labelled with the originating tenant's id (the X-Dcs-Tenant
// header, riding beside X-Dcs-Trace) is counted against an
// attribution-only tenant with zero limits, for accounting alone. Each
// request has exactly one tenant, and it is charged only where its
// budget is enforced.
//
// Usage and cumulative quotas live in process memory: they survive a
// keys-file reload but not a restart, and each process counts only the
// requests and jobs it served.
//
// Two different 429s come out of this layer's accounting, and keeping
// them distinguishable is the point: "you are over YOUR budget"
// (error code quota_exceeded, from a tenant's rate or quota limits) is
// actionable by the caller alone, while "the worker is saturated"
// (error code overloaded, from -max-inflight admission) is actionable
// only by retrying elsewhere or later. The serve layer maps this
// package's denials to the former and its own admission sheds to the
// latter.
//
// Everything here is nil-safe the way internal/obs is: a nil *Tenant
// (anonymous traffic with auth disabled) makes every method a cheap
// no-op, so call sites need no guards and the auth-off request path
// stays at today's cost.
package tenant

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"maps"
	"sync"
	"time"
)

// Header carries a tenant id between processes, the identity analogue of
// obs.TraceHeader: a front-end dispatching a tenant's job stamps it on
// the worker request. Only a worker without a keys file reads it, to
// account the work to the originating tenant; a keyed worker charges
// the key that authenticated the request and ignores the header.
const Header = "X-Dcs-Tenant"

// Limits are one tenant's admission budget. The zero value of every
// field means "unlimited" — a keys file that names only ids and secrets
// authenticates without constraining, and limits can be tightened later
// through the admin plane without re-issuing keys.
type Limits struct {
	// RatePerSec refills the tenant's token bucket: sustained requests
	// per second across every endpoint. 0 = no rate limit.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth — how far above the sustained rate a
	// tenant may spike. 0 with a positive rate defaults to
	// max(1, ceil(rate)).
	Burst int `json:"burst,omitempty"`
	// MaxRequests is a cumulative request quota (lifetime of the
	// process, or until an admin resets usage by re-creating the key).
	MaxRequests int64 `json:"max_requests,omitempty"`
	// MaxJobs caps cumulative compute jobs by kind ("counters",
	// "cluster"). Kinds absent from the map are unlimited.
	MaxJobs map[string]int64 `json:"max_jobs,omitempty"`
	// MaxInstructions caps cumulative simulated instructions across the
	// tenant's counters jobs — the actual cost unit of this service.
	MaxInstructions int64 `json:"max_instructions,omitempty"`
}

// Usage is one tenant's cumulative consumption, the admin plane's
// reporting unit. Each field declares the dcserved_tenant_* metric family
// it is exported under; Jobs is keyed by job kind.
type Usage struct {
	Requests     int64            `json:"requests" metric:"dcserved_tenant_requests_total,counter" help:"Requests admitted, by tenant."`
	RateLimited  int64            `json:"rate_limited" metric:"dcserved_tenant_rate_limited_total,counter" help:"Requests refused 429 quota_exceeded by the tenant's rate limit."`
	QuotaDenied  int64            `json:"quota_denied" metric:"dcserved_tenant_quota_denied_total,counter" help:"Requests and jobs refused 429 quota_exceeded by a cumulative quota."`
	Jobs         map[string]int64 `json:"jobs,omitempty" metric:"dcserved_tenant_jobs_total,counter" label:"kind" help:"Completed compute jobs, by tenant and job kind."`
	Instructions int64            `json:"instructions" metric:"dcserved_tenant_instructions_total,counter" help:"Simulated instructions charged to each tenant's completed jobs."`
}

// Snapshot is one tenant's externally visible state: what /healthz
// embeds per tenant and GET /admin/v1/usage reports. Secrets never
// appear in snapshots.
type Snapshot struct {
	ID string `json:"id" label:"tenant"`
	// Keyed distinguishes tenants backed by an API key from
	// attribution-only tenants (ids the dispatch hop's X-Dcs-Tenant
	// header named on a server without a keys file, and keys that left
	// the file).
	Keyed    bool   `json:"keyed"`
	Disabled bool   `json:"disabled,omitempty"`
	Limits   Limits `json:"limits" metric:"-"` // configuration, not telemetry: /healthz only
	Usage    Usage  `json:"usage"`
}

// Tenant is one identified caller: the runtime state behind an API key,
// or an attribution-only label for dispatched work on a server without
// a keys file. Create through a Registry; all methods are safe for
// concurrent use and nil-safe.
type Tenant struct {
	id string

	// mu guards every field below, so a limited request's check and its
	// charge are one step.
	mu       sync.Mutex
	keyed    bool
	disabled bool
	secret   string // retained to persist the keys file; compared only by digest
	digest   [sha256.Size]byte
	limits   Limits
	tokens   float64
	last     time.Time
	used     Usage
}

func newTenant(id string) *Tenant { return &Tenant{id: id} }

// ID returns the tenant's identifier ("" for nil — anonymous).
func (t *Tenant) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// setLimits replaces the tenant's limits. The bucket is reset to the new
// burst so a loosened limit takes effect immediately.
func (t *Tenant) setLimits(l Limits) {
	t.mu.Lock()
	t.limits = l
	t.tokens = float64(burstOf(l))
	t.mu.Unlock()
}

// burstOf resolves a Limits' effective bucket depth.
func burstOf(l Limits) int {
	if l.Burst > 0 {
		return l.Burst
	}
	if l.RatePerSec <= 0 {
		return 0
	}
	b := int(l.RatePerSec)
	if float64(b) < l.RatePerSec {
		b++
	}
	if b < 1 {
		b = 1
	}
	return b
}

// allow spends one request against the tenant's budget at time now: the
// cumulative request quota first, then the token bucket. A granted
// request is charged; a denied one increments the matching denial
// counter instead. retryAfter is positive only for rate denials — a
// bucket refills on a known schedule, a spent cumulative quota does not.
// A nil tenant always allows (anonymous traffic, auth off).
func (t *Tenant) allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if t == nil {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &t.limits
	if l.MaxRequests > 0 && t.used.Requests >= l.MaxRequests {
		t.used.QuotaDenied++
		return false, 0
	}
	if l.RatePerSec > 0 {
		burst := float64(burstOf(*l))
		if t.last.IsZero() {
			// First sighting: a full bucket, so a fresh tenant can burst.
			t.tokens = burst
		} else if dt := now.Sub(t.last).Seconds(); dt > 0 {
			t.tokens += dt * l.RatePerSec
			if t.tokens > burst {
				t.tokens = burst
			}
		}
		t.last = now
		if t.tokens < 1 {
			t.used.RateLimited++
			return false, time.Duration((1 - t.tokens) / l.RatePerSec * float64(time.Second))
		}
		t.tokens--
	}
	t.used.Requests++
	return true, 0
}

// CheckJob reports whether one more job of this kind, costing instrs
// simulated instructions, fits the tenant's cumulative job quotas. A
// refusal is counted as a quota denial. Nil allows.
func (t *Tenant) CheckJob(kind string, instrs int64) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &t.limits
	if max := l.MaxJobs[kind]; max > 0 && t.used.Jobs[kind] >= max ||
		l.MaxInstructions > 0 && t.used.Instructions+instrs > l.MaxInstructions {
		t.used.QuotaDenied++
		return false
	}
	return true
}

// ChargeJob records one executed job of this kind and its instruction
// cost. Charged on execution, not admission: a shed or failed job costs
// the cluster nothing lasting, so it costs the tenant nothing either.
func (t *Tenant) ChargeJob(kind string, instrs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.used.Jobs == nil {
		t.used.Jobs = make(map[string]int64)
	}
	t.used.Jobs[kind]++
	t.used.Instructions += instrs
}

// Snapshot returns the tenant's reportable state.
func (t *Tenant) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.used
	u.Jobs = maps.Clone(t.used.Jobs)
	return Snapshot{ID: t.id, Keyed: t.keyed, Disabled: t.disabled, Limits: t.limits, Usage: u}
}

// setKey installs (or refreshes) the tenant's key material from one
// keys-file entry, preserving accumulated usage — a reload must not
// amnesty a tenant's consumption.
func (t *Tenant) setKey(secret string, disabled bool, l Limits) {
	t.mu.Lock()
	t.keyed = true
	t.disabled = disabled
	if secret != t.secret {
		t.secret = secret
		t.digest = sha256.Sum256([]byte(secret))
	}
	t.limits = l
	t.mu.Unlock()
}

// clearKey demotes the tenant to attribution-only: its key vanished from
// the keys file, so it must stop authenticating, but its usage history
// stays reportable.
func (t *Tenant) clearKey() {
	t.mu.Lock()
	t.keyed = false
	t.secret = ""
	t.digest = [sha256.Size]byte{}
	t.mu.Unlock()
}

// matches reports whether digest is this tenant's key digest. The
// comparison cost is constant whether or not the tenant is keyed or
// disabled — Authenticate walks every tenant unconditionally, so a
// probe's timing reveals neither which ids exist nor which are revoked.
func (t *Tenant) matches(digest *[sha256.Size]byte) (match, usable bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	eq := subtle.ConstantTimeCompare(t.digest[:], digest[:]) == 1
	return eq && t.keyed, t.keyed && !t.disabled
}

func (t *Tenant) isKeyed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.keyed
}

// keyConfig rebuilds the tenant's keys-file entry (persisting admin
// mutations); ok is false for attribution-only tenants.
func (t *Tenant) keyConfig() (KeyConfig, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.keyed {
		return KeyConfig{}, false
	}
	return KeyConfig{ID: t.id, Secret: t.secret, Disabled: t.disabled, Limits: t.limits}, true
}

// ctxKey keys the tenant in a request context.
type ctxKey struct{}

// With returns ctx carrying t. A nil t returns ctx unchanged.
func With(ctx context.Context, t *Tenant) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// From returns the tenant carried by ctx, or nil.
func From(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}

// IDFrom returns the id of the tenant carried by ctx ("" when none) —
// what the dispatch layer stamps into the X-Dcs-Tenant header.
func IDFrom(ctx context.Context) string {
	return From(ctx).ID()
}

// String renders limits compactly for log lines.
func (l Limits) String() string {
	return fmt.Sprintf("rate=%g burst=%d max_requests=%d max_jobs=%v max_instructions=%d",
		l.RatePerSec, l.Burst, l.MaxRequests, l.MaxJobs, l.MaxInstructions)
}
