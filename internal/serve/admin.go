package serve

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strings"

	"dcbench/internal/tenant"
)

// This file is the admin plane: the operator's API for minting, revoking
// and re-budgeting tenant keys, and for reading the cluster's per-tenant
// usage, without editing the keys file by hand or restarting the server.
// It is deliberately NOT part of the v1 surface — AdminHandler mounts on
// the -admin-addr (or -debug-addr) listener, which an operator binds to
// localhost or an internal network, never the serving address — and it
// authenticates with its own bootstrap bearer token (-admin-token), so a
// tenant key never grants admin rights and the admin token never grants
// data-plane access.
//
//	GET    /admin/v1/keys           list key configs (secrets redacted) + usage
//	POST   /admin/v1/keys           create a key (body: tenant.KeyConfig; secret minted if empty)
//	DELETE /admin/v1/keys/{id}      revoke a key (usage is retained)
//	PUT    /admin/v1/keys/{id}/limits  replace a key's limits (body: tenant.Limits)
//	GET    /admin/v1/usage          per-tenant usage report
//
// Mutations persist to the keys file atomically, so an admin-created key
// survives a restart and a SIGHUP reload never resurrects a revoked one.
// A mutation takes effect only once the file is written: a failed write
// answers 500 internal and changes nothing.
// Errors speak the same envelope as the v1 API.

// adminPlane is the admin API over one tenant registry.
type adminPlane struct {
	reg    *tenant.Registry
	digest [sha256.Size]byte
	log    *slog.Logger
}

// AdminHandler returns the /admin/v1 handler for reg, guarded by the
// bootstrap bearer token. An empty token disables the plane entirely
// (every request answers 401): an unauthenticated admin API is worse
// than none.
func AdminHandler(reg *tenant.Registry, token string, log *slog.Logger) http.Handler {
	if log == nil {
		log = slog.Default()
	}
	a := &adminPlane{reg: reg, log: log}
	if token != "" {
		a.digest = sha256.Sum256([]byte(token))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /admin/v1/keys", a.handleKeyList)
	mux.HandleFunc("POST /admin/v1/keys", a.handleKeyCreate)
	mux.HandleFunc("DELETE /admin/v1/keys/{id}", a.handleKeyRevoke)
	mux.HandleFunc("PUT /admin/v1/keys/{id}/limits", a.handleKeyLimits)
	mux.HandleFunc("GET /admin/v1/usage", a.handleUsage)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !a.authorized(r) {
			writeError(w, r, http.StatusUnauthorized, codeUnauthorized, "admin token required")
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// authorized checks the bootstrap token: constant-time over the sha256
// digests, like the data plane's key check.
func (a *adminPlane) authorized(r *http.Request) bool {
	var zero [sha256.Size]byte
	if a.digest == zero {
		return false // no token configured: the plane is disabled
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return false
	}
	got := sha256.Sum256([]byte(strings.TrimSpace(tok)))
	return subtle.ConstantTimeCompare(got[:], a.digest[:]) == 1
}

// handleKeyList reports each key's tenant snapshot (limits + usage). A
// snapshot carries no secret: that is shown exactly once, at creation.
func (a *adminPlane) handleKeyList(w http.ResponseWriter, r *http.Request) {
	keys := []tenant.Snapshot{}
	for _, s := range a.reg.Snapshots() {
		if s.Keyed {
			keys = append(keys, s)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Keys []tenant.Snapshot `json:"keys"`
	}{keys})
}

// writeMutationError answers a refused admin mutation: an unwritten keys
// file is the server's fault (500, detail in the log), anything else the
// caller's (status and code).
func (a *adminPlane) writeMutationError(w http.ResponseWriter, r *http.Request, err error, status int, code string) {
	if errors.Is(err, tenant.ErrNotPersisted) {
		a.log.Error("admin mutation not applied", "err", err)
		writeError(w, r, http.StatusInternalServerError, codeInternal, "keys file not written; nothing changed")
		return
	}
	writeError(w, r, status, code, err.Error())
}

func (a *adminPlane) handleKeyCreate(w http.ResponseWriter, r *http.Request) {
	var cfg tenant.KeyConfig
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobRequest)).Decode(&cfg); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "unreadable key config: "+err.Error())
		return
	}
	created, err := a.reg.CreateKey(cfg)
	if err != nil {
		a.writeMutationError(w, r, err, http.StatusBadRequest, codeBadRequest)
		return
	}
	a.log.Info("admin created key", "tenant", created.ID)
	// The one response that carries a secret: the caller must store it,
	// the server keeps only the digest-bearing keys file.
	writeJSON(w, http.StatusCreated, created)
}

func (a *adminPlane) handleKeyRevoke(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.reg.RevokeKey(id); err != nil {
		a.writeMutationError(w, r, err, http.StatusNotFound, codeNotFound)
		return
	}
	a.log.Info("admin revoked key", "tenant", id)
	w.WriteHeader(http.StatusNoContent)
}

func (a *adminPlane) handleKeyLimits(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var l tenant.Limits
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobRequest)).Decode(&l); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "unreadable limits: "+err.Error())
		return
	}
	if err := a.reg.SetKeyLimits(id, l); err != nil {
		a.writeMutationError(w, r, err, http.StatusNotFound, codeNotFound)
		return
	}
	a.log.Info("admin set limits", "tenant", id)
	t, _ := a.reg.Lookup(id)
	writeJSON(w, http.StatusOK, t.Snapshot())
}

func (a *adminPlane) handleUsage(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Tenants []tenant.Snapshot `json:"tenants"`
	}{a.reg.Snapshots()})
}
