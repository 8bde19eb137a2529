package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests pin the retained set's bound and what it holds: at most
// MaxRetained settled values, least recently used out first, in-flight
// cells never evicted, failures never kept, and nothing of the request
// that computed a value.

// insertions is how many distinct keys the bound tests push through.
const insertions = 100_000

// TestRetainedSetIsBounded: 10⁵ distinct keys leave at most MaxRetained
// retained, and the survivors are the most recently inserted.
func TestRetainedSetIsBounded(t *testing.T) {
	m := New[int, int]()
	for k := 0; k < insertions; k++ {
		if _, err := m.Do(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
		if n := m.Len(); n > MaxRetained {
			t.Fatalf("after %d keys Len = %d, bound %d", k+1, n, MaxRetained)
		}
	}
	if n := m.Len(); n != MaxRetained {
		t.Fatalf("Len = %d, want the full bound %d", n, MaxRetained)
	}
	for _, k := range []int{insertions - MaxRetained, insertions - 1} {
		if v, err, ok := m.Join(context.Background(), k); !ok || err != nil || v != k {
			t.Fatalf("recent key %d = %d, %v, %v; want retained", k, v, err, ok)
		}
	}
	if _, _, ok := m.Join(context.Background(), insertions-MaxRetained-1); ok {
		t.Fatal("the least recently used key survived past the bound")
	}
}

// TestHitRefreshesRecency: a retained value that keeps being read outlives
// keys inserted after it; one that is not read is the first to go.
func TestHitRefreshesRecency(t *testing.T) {
	m := New[int, int]()
	for k := 0; k < MaxRetained; k++ {
		m.Do(k, func() (int, error) { return k, nil })
	}
	for k := MaxRetained; k < 3*MaxRetained; k++ {
		if _, err := m.Do(0, func() (int, error) { return -1, errors.New("hot key re-ran") }); err != nil {
			t.Fatalf("hot key evicted before key %d: %v", k, err)
		}
		m.Do(k, func() (int, error) { return k, nil })
	}
	if _, _, ok := m.Join(context.Background(), 1); ok {
		t.Fatal("a cold key survived 2×MaxRetained newer insertions")
	}
}

// TestInFlightCellIsNeverEvicted: a blocked call survives 10⁵ insertions
// around it, its joiners share its value, and it is retained once it
// settles.
func TestInFlightCellIsNeverEvicted(t *testing.T) {
	m := New[int, int]()
	const blocked = -1
	started, release := make(chan struct{}), make(chan struct{})
	joined := make(chan struct{}, 2)
	m.OnJoin(func() { joined <- struct{}{} })

	var wg sync.WaitGroup
	vals := make([]int, 3)
	errs := make([]error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], errs[0] = m.DoShared(context.Background(), blocked, func(context.Context) (int, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	mustNotRun := func(context.Context) (int, error) { return 0, errors.New("joiner started a second run") }
	wg.Add(2)
	go func() { defer wg.Done(); vals[1], errs[1] = m.DoShared(context.Background(), blocked, mustNotRun) }()
	go func() { defer wg.Done(); vals[2], errs[2], _ = m.Join(context.Background(), blocked) }()
	<-joined
	<-joined

	for k := 0; k < insertions; k++ {
		m.Do(k, func() (int, error) { return k, nil })
	}
	if n := m.Len(); n != MaxRetained+1 {
		t.Fatalf("Len = %d, want %d retained plus the one in flight", n, MaxRetained+1)
	}
	close(release)
	wg.Wait()
	for i := range vals {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("participant %d = %d, %v; want the blocked call's 42", i, vals[i], errs[i])
		}
	}
	if v, err, ok := m.Join(context.Background(), blocked); !ok || err != nil || v != 42 {
		t.Fatalf("settled key = %d, %v, %v; want 42 retained", v, err, ok)
	}
	if n := m.Len(); n != MaxRetained {
		t.Fatalf("Len = %d after the flight settled, want %d", n, MaxRetained)
	}
}

// TestFailuresAreNeverRetained: an error or a panic leaves no value behind
// in a retaining memo, through every entry point, and the next call runs.
func TestFailuresAreNeverRetained(t *testing.T) {
	boom := errors.New("boom")
	fails := map[string]func(context.Context) (int, error){
		"error": func(context.Context) (int, error) { return 0, boom },
		"panic": func(context.Context) (int, error) { panic("boom") },
	}
	for name, fn := range fails {
		m := New[string, int]()
		if _, err := m.Do("k", func() (int, error) { return fn(context.Background()) }); err == nil {
			t.Fatalf("%s: Do succeeded", name)
		}
		if _, err := m.DoShared(context.Background(), "s", fn); err == nil {
			t.Fatalf("%s: DoShared succeeded", name)
		}
		if n := m.Len(); n != 0 {
			t.Fatalf("%s: %d failed keys retained", name, n)
		}
		for _, k := range []string{"k", "s"} {
			if _, _, ok := m.Join(context.Background(), k); ok {
				t.Fatalf("%s: Join found the failed key %q", name, k)
			}
			if v, err := m.Do(k, func() (int, error) { return 7, nil }); err != nil || v != 7 {
				t.Fatalf("%s: retry of %q = %d, %v", name, k, v, err)
			}
		}
	}
}

// payloadKey carries a payload in a caller's context.
type payloadKey struct{}

// payload stands in for a request's trace: large enough to get its own
// allocation, so its finalizer can run.
type payload struct{ buf [64]byte }

// collected reports whether the finalizer closing done runs within a few
// collections.
func collected(done <-chan struct{}) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestRetainedValueReleasesRequest: once a DoShared call has returned, the
// memo holds its value and nothing of the caller's context — a payload
// carried there is collected while the memo, and the value, live on.
func TestRetainedValueReleasesRequest(t *testing.T) {
	m := New[string, int]()
	done := make(chan struct{})
	func() {
		p := &payload{}
		runtime.SetFinalizer(p, func(*payload) { close(done) })
		ctx := context.WithValue(context.Background(), payloadKey{}, p)
		if v, err := m.DoShared(ctx, "k", func(ctx context.Context) (int, error) {
			if ctx.Value(payloadKey{}) != p {
				t.Error("fn's context lost the caller's values")
			}
			return 1, nil
		}); v != 1 || err != nil {
			t.Fatalf("DoShared = %d, %v", v, err)
		}
	}()
	if !collected(done) {
		t.Fatal("the retained key still pins its caller's context")
	}
	if v, err, ok := m.Join(context.Background(), "k"); !ok || err != nil || v != 1 {
		t.Fatalf("retained value = %d, %v, %v", v, err, ok)
	}
}
