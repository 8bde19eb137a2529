package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the refcounted-cancellation invariant: participants
// leave a flight when their own context dies, and only the LAST departure
// cancels the running function's context.

// TestDoSharedOneCancelOthersSurvive: N joiners share a flight, one
// cancels — it gets its ctx error immediately, the others get the result,
// and the function's context is never cancelled.
func TestDoSharedOneCancelOthersSurvive(t *testing.T) {
	m := New[string, int]()
	started := make(chan struct{})
	release := make(chan struct{})
	var fnCtxErr atomic.Value // error observed by fn at release time
	var calls atomic.Int64

	fn := func(ctx context.Context) (int, error) {
		calls.Add(1)
		close(started)
		<-release
		fnCtxErr.Store(ctx.Err() == nil) // true = still alive
		return 99, nil
	}
	mustNotRun := func(ctx context.Context) (int, error) {
		t.Error("joiner must share the leader's call")
		return 0, nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := m.DoShared(context.Background(), "k", fn)
		leaderErr <- err
	}()
	<-started

	// Two joiners: one patient, one that cancels mid-wait.
	cancelCtx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	patient := make(chan struct{})
	go func() {
		defer wg.Done()
		v, err := m.DoShared(context.Background(), "k", mustNotRun)
		if v != 99 || err != nil {
			t.Errorf("patient joiner = %d, %v; want 99", v, err)
		}
		close(patient)
	}()
	// Give the patient joiner time to attach before the canceller departs.
	for m.Len() != 1 {
		time.Sleep(time.Millisecond)
	}

	cancelled := make(chan error, 1)
	go func() {
		_, err := m.DoShared(cancelCtx, "k", mustNotRun)
		cancelled <- err
	}()
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner err = %v, want context.Canceled", err)
	}
	select {
	case <-patient:
		t.Fatal("patient joiner returned before the fn finished")
	default:
	}

	close(release)
	wg.Wait()
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if alive, _ := fnCtxErr.Load().(bool); !alive {
		t.Fatal("fn's context was cancelled although two participants remained")
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
}

// TestDoSharedAllCancelStopsFn: when every participant leaves, the
// function's context is cancelled, its error is never cached, and the next
// caller starts a fresh run instead of joining the doomed one.
func TestDoSharedAllCancelStopsFn(t *testing.T) {
	m := New[string, int]()
	started := make(chan struct{})
	fnDone := make(chan error, 1)

	ctx, cancel := context.WithCancel(context.Background())
	callerDone := make(chan error, 1)
	go func() {
		_, err := m.DoShared(ctx, "k", func(runCtx context.Context) (int, error) {
			close(started)
			<-runCtx.Done() // the work observes cancellation...
			fnDone <- runCtx.Err()
			return 0, runCtx.Err() // ...and fails with it
		})
		callerDone <- err
	}()
	<-started
	cancel()
	if err := <-callerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want context.Canceled", err)
	}
	select {
	case err := <-fnDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fn ctx err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fn never observed the cancellation")
	}

	// The failure must not be cached: a fresh caller re-runs and succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := m.DoShared(context.Background(), "k", func(context.Context) (int, error) {
			return 42, nil
		})
		if err == nil && v == 42 {
			break
		}
		// A retry may still join the abandoned cell settling; back off.
		if time.Now().After(deadline) {
			t.Fatalf("post-cancel call = %d, %v; want a fresh 42", v, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoSharedAbandonedLateSuccess: a run abandoned by every caller that
// nevertheless completes successfully retains its value — cancellation is
// advisory, and throwing away a finished result helps nobody.
func TestDoSharedAbandonedLateSuccess(t *testing.T) {
	m := New[string, int]()
	started := make(chan struct{})
	release := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	callerDone := make(chan struct{})
	go func() {
		m.DoShared(ctx, "k", func(context.Context) (int, error) {
			close(started)
			<-release // ignores its context: finishes anyway
			return 7, nil
		})
		close(callerDone)
	}()
	<-started
	cancel()
	<-callerDone
	close(release)

	// Wait for the late success to settle, then read the retained value.
	// Join (not DoShared): a fresh run would displace the abandoned cell,
	// and this test is about the cell settling, not being replaced.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err, ok := m.Join(context.Background(), "k")
		if ok && err == nil && v == 7 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained read = %d, %v, %v; want the late 7", v, err, ok)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUncancelledJoinerPinsCell: a joiner whose context is never cancelled
// pins the cell — the cancellable starter leaving does NOT cancel the run,
// and the pinned joiner gets the result.
func TestUncancelledJoinerPinsCell(t *testing.T) {
	m := NewFlight[string, int]()
	started := make(chan struct{})
	release := make(chan struct{})
	var fnAlive atomic.Bool

	ctx, cancel := context.WithCancel(context.Background())
	starterDone := make(chan error, 1)
	go func() {
		_, err := m.DoShared(ctx, "k", func(runCtx context.Context) (int, error) {
			close(started)
			<-release
			fnAlive.Store(runCtx.Err() == nil)
			return 5, nil
		})
		starterDone <- err
	}()
	<-started

	joined := make(chan struct{})
	m.OnJoin(func() { close(joined) })
	pinnedDone := make(chan struct{})
	go func() {
		defer close(pinnedDone)
		v, err := m.DoShared(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("pinned joiner must not run fn")
			return 0, nil
		})
		if v != 5 || err != nil {
			t.Errorf("pinned joiner = %d, %v; want 5", v, err)
		}
	}()
	<-joined

	cancel()
	if err := <-starterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("starter err = %v, want context.Canceled", err)
	}
	close(release)
	<-pinnedDone
	if !fnAlive.Load() {
		t.Fatal("fn's context was cancelled although a pinned joiner remained")
	}
}

// TestJoinPeek: Join never starts a run (ok=false on a cold key), returns
// retained values immediately, and attaches to in-flight cells like a
// DoShared joiner — including cancellable waiting.
func TestJoinPeek(t *testing.T) {
	m := New[string, int]()
	if _, _, ok := m.Join(context.Background(), "cold"); ok {
		t.Fatal("Join on a cold key reported ok")
	}

	if _, err := m.Do("warm", func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	if v, err, ok := m.Join(context.Background(), "warm"); !ok || err != nil || v != 3 {
		t.Fatalf("Join on retained key = %d, %v, %v; want 3, nil, true", v, err, ok)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	go m.DoShared(context.Background(), "hot", func(context.Context) (int, error) {
		close(started)
		<-release
		return 8, nil
	})
	<-started
	joinDone := make(chan int, 1)
	go func() {
		v, err, ok := m.Join(context.Background(), "hot")
		if !ok || err != nil {
			t.Errorf("Join on in-flight key = %v, %v", err, ok)
		}
		joinDone <- v
	}()
	// The join must be waiting, not failing fast.
	select {
	case v := <-joinDone:
		t.Fatalf("Join returned %d before the flight finished", v)
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	if v := <-joinDone; v != 8 {
		t.Fatalf("joined value = %d, want 8", v)
	}

	// A cancelled Join leaves without killing the flight for others... but
	// here it is the only cancellable participant besides the starter, so
	// the run keeps the starter's refcount and completes.
	if _, err, ok := m.Join(canceledCtx(), "warm"); !ok || err != nil {
		t.Fatalf("cancelled Join on retained key = %v, %v; the value is already done", err, ok)
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDoSharedCancelStress hammers one key with cancelling and patient
// callers under the race detector: no deadlocks, no cached errors, every
// non-cancelled caller gets a valid value.
func TestDoSharedCancelStress(t *testing.T) {
	m := NewFlight[int, int]()
	const (
		keys    = 4
		callers = 64
	)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := i % keys
			ctx := context.Background()
			if i%3 == 0 {
				c, cancel := context.WithCancel(ctx)
				// Cancel at a jittered point: before, during, after the call.
				go func() {
					time.Sleep(time.Duration(i%7) * 100 * time.Microsecond)
					cancel()
				}()
				defer cancel()
				ctx = c
			}
			v, err := m.DoShared(ctx, key, func(runCtx context.Context) (int, error) {
				select {
				case <-runCtx.Done():
					return 0, runCtx.Err()
				case <-time.After(200 * time.Microsecond):
					return key + 1, nil
				}
			})
			if err == nil && v != key+1 {
				t.Errorf("caller %d got %d, want %d", i, v, key+1)
			}
		}(i)
	}
	wg.Wait()
	// A caller that cancelled out returns before its abandoned run settles;
	// that run sees its cancelled context and drops the cell soon after.
	deadline := time.Now().Add(5 * time.Second)
	for m.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flight memo retained %d keys after the storm", m.Len())
		}
		time.Sleep(time.Millisecond)
	}
}
