package serve

import (
	"net/http"
	"strconv"

	"dcbench/internal/tenant"
)

// This file is the serve-side of the identity layer: resolving each
// request to its one tenant and spending that tenant's rate and quota
// budget before the mux sees the request. The tenant then rides the
// request context through jobCtx into the engine's memo and the dispatch
// layer (which forwards its id to workers); it decides the job quota,
// is charged for executed jobs and owns the async jobs it submits.

// admitTenant resolves the request's tenant and spends one request of
// its budget. The tenant is the authenticated key when a keys file is
// loaded (X-Dcs-Tenant is not read); with auth off it is the
// attribution-only tenant X-Dcs-Tenant names (zero limits, pure
// accounting), or nil when the header is absent. A request is charged
// only where its budget is enforced, so no header moves another
// tenant's budget or usage. Three outcomes:
//
//   - (tenant, nil): admitted (a nil tenant is anonymous traffic with
//     auth off).
//   - (nil, 401 unauthorized): a keys file is loaded and the request
//     presented no usable key.
//   - (tenant, 429 quota_exceeded): the tenant's rate or quota budget
//     is spent — with Retry-After when the denial is rate-based, since a
//     bucket refills on a known schedule. Deliberately a different code
//     from the admission layer's 429 overloaded: "slow yourself down"
//     and "this worker is drowning" demand different reactions.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (*tenant.Tenant, *apiError) {
	var tn *tenant.Tenant
	if s.tenants.Enabled() {
		var err error
		if tn, err = s.tenants.Authenticate(r); err != nil {
			return nil, &apiError{http.StatusUnauthorized, codeUnauthorized, err.Error()}
		}
	} else if id := r.Header.Get(tenant.Header); id != "" {
		tn = s.tenants.Attribute(id)
	}
	if ok, retry := s.tenants.Allow(tn); !ok {
		if retry > 0 {
			secs := int(retry.Seconds() + 0.999)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		return tn, &apiError{http.StatusTooManyRequests, codeQuotaExceeded,
			"tenant " + strconv.Quote(tn.ID()) + " is over its request budget"}
	}
	return tn, nil
}
