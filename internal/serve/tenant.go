package serve

import (
	"context"
	"net/http"
	"strconv"

	"dcbench/internal/tenant"
)

// This file is the serve-side of the identity layer: resolving each
// request to a tenant (API-key authentication when a keys file is
// loaded, X-Dcs-Tenant attribution for work arriving over the dispatch
// hop) and spending that tenant's rate and quota budget before the mux
// sees the request. The attributed tenant then rides the request context
// through jobCtx into the engine's memo and the dispatch layer (which
// forwards its id to workers); the granting tenant (grantee) rides beside
// it and decides the job quota and async job ownership.

// admitTenant resolves the request's tenants and spends one request of
// the enforcing tenant's budget. Three outcomes:
//
//   - (grant, origin, nil): admitted; grant is the tenant whose limits
//     and ownership decide the request's grants, origin the one its usage
//     is attributed to (both nil for anonymous traffic with auth off).
//   - (nil, nil, 401 unauthorized): a keys file is loaded and the request
//     presented no usable key.
//   - (grant, grant, 429 quota_exceeded): the tenant's own rate or quota
//     budget is spent — with Retry-After when the denial is rate-based,
//     since a bucket refills on a known schedule. Deliberately a
//     different code from the admission layer's 429 overloaded: "slow
//     yourself down" and "this worker is drowning" demand different
//     reactions.
//
// Enforcement binds to the authenticated key; attribution follows the
// originating tenant. They differ on exactly one path: a keyed
// front-end forwarding a tenant's job to a keyed worker authenticates
// with its own service key while X-Dcs-Tenant names the origin — the
// worker enforces the service key's limits but attributes the work (and
// the usage) to the origin, so per-tenant accounting is cluster-wide
// coherent. With auth off the forwarded id alone identifies the tenant
// (zero limits, pure accounting), and with no header either, everything
// stays anonymous and free — the auth-off request path is unchanged.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (grant, origin *tenant.Tenant, deny *apiError) {
	var auth *tenant.Tenant
	if s.tenants.Enabled() {
		var err error
		auth, err = s.tenants.Authenticate(r)
		if err != nil {
			return nil, nil, &apiError{http.StatusUnauthorized, codeUnauthorized, err.Error()}
		}
	}
	attributed := auth
	if id := r.Header.Get(tenant.Header); id != "" {
		if t := s.tenants.Attribute(id); t != nil {
			attributed = t
		}
	}
	enforce := auth
	if enforce == nil {
		enforce = attributed
	}
	if ok, retry := s.tenants.Allow(enforce); !ok {
		if retry > 0 {
			secs := int(retry.Seconds() + 0.999)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		return enforce, enforce, &apiError{http.StatusTooManyRequests, codeQuotaExceeded,
			"tenant " + strconv.Quote(enforce.ID()) + " is over its request budget"}
	}
	if attributed != enforce {
		// The origin's usage must show this request even though the
		// budget came off the service key.
		attributed.ChargeRequest()
	}
	return enforce, attributed, nil
}

// grantKey keys the granting tenant in a context where it differs from
// the attributed one.
type grantKey struct{}

// grantee returns the tenant whose budget admitted ctx's request (the
// authenticated key's; with auth off, the attributed one). It alone
// decides the job quota and which async jobs the caller may see.
func grantee(ctx context.Context) *tenant.Tenant {
	if t, ok := ctx.Value(grantKey{}).(*tenant.Tenant); ok {
		return t
	}
	return tenant.From(ctx)
}
