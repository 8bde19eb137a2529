package tenant

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestReloadRace interleaves every way the key table can change — SIGHUP
// reloads, explicit reloads, mtime-triggered reloads behind Authenticate,
// on-disk rewrites, and admin mutations that persist — with the
// constant-time authentication walk and the snapshot reporters. It exists
// to run under -race: the assertions are deliberately weak (the
// interleaving decides whether a given key is live at a given instant),
// the data-race detector is the oracle.
func TestReloadRace(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir,
		KeyConfig{ID: "alice", Secret: "dck_alice", Limits: Limits{RatePerSec: 1000}},
		KeyConfig{ID: "bob", Secret: "dck_bob"},
	)
	r, err := Open(path, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.WatchSIGHUP(ctx)

	authReq := func(secret string) *Tenant {
		req := httptest.NewRequest("GET", "/v1/workloads", nil)
		req.Header.Set("Authorization", "Bearer "+secret)
		tn, _ := r.Authenticate(req)
		return tn
	}

	const iters = 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	spawn := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
			}
		}()
	}
	// Authenticators: a key that stays in the file, one that churns, and
	// garbage. alice is never mutated or rewritten away, so her key must
	// authenticate at every instant of the storm.
	spawn(func(int) {
		if authReq("dck_alice") == nil {
			t.Error("alice's stable key failed to authenticate mid-reload")
		}
	})
	spawn(func(int) { authReq("dck_bob") })
	spawn(func(int) { authReq("dck_nope") })
	// Explicit reloads and the SIGHUP path.
	spawn(func(int) { r.reload() })
	spawn(func(int) {
		syscall.Kill(os.Getpid(), syscall.SIGHUP)
		time.Sleep(time.Millisecond)
	})
	// On-disk rewrites: bob's limits flap, alice stays put. Racing the
	// admin plane's persistLocked is the point — both sides rename
	// atomically, so every reload sees one side or the other whole.
	spawn(func(i int) {
		writeKeys(t, dir,
			KeyConfig{ID: "alice", Secret: "dck_alice", Limits: Limits{RatePerSec: 1000}},
			KeyConfig{ID: "bob", Secret: "dck_bob", Limits: Limits{RatePerSec: float64(i%50 + 1)}},
		)
	})
	// Admin mutations: mint, limit, revoke a churn tenant, persisting on
	// every step.
	spawn(func(i int) {
		id := fmt.Sprintf("churn%d", i%4)
		if _, err := r.CreateKey(KeyConfig{ID: id, Secret: "dck_" + id}); err == nil {
			r.SetKeyLimits(id, Limits{RatePerSec: 7})
			r.RevokeKey(id)
		}
	})
	// Reporters.
	spawn(func(int) { r.Snapshots() })
	spawn(func(int) { r.Enabled() })

	// Let the storm run a fixed slice of real time — iters Authenticate
	// calls from the stable-key goroutine is plenty of interleaving.
	deadline := time.After(500 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			if authReq("dck_alice") == nil {
				t.Error("alice's stable key failed to authenticate mid-reload")
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
	}
	// Stop the SIGHUP senders (and everything else) BEFORE cancelling the
	// watcher: a straggler SIGHUP after signal.Stop would kill the test
	// process via the default disposition.
	close(stop)
	wg.Wait()
	time.Sleep(10 * time.Millisecond)
	cancel()

	// The table settles to something coherent: a final reload re-reads
	// whatever rewrite landed last, and alice still authenticates.
	if err := r.reload(); err != nil {
		t.Fatalf("final reload: %v", err)
	}
	if authReq("dck_alice") == nil {
		t.Fatal("alice's key lost after the storm settled")
	}
}
