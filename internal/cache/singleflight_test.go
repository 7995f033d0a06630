package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Waiting reports how many callers are currently blocked waiting for
// the in-flight computation of key (excluding the leader); it is 0
// when no computation for key is in flight.
func (f *Flight[V]) Waiting(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c.waiters
	}
	return 0
}

// Pending reports how many keys have an in-flight computation.
func (f *Flight[V]) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// waitFor polls cond until it holds or the deadline passes. It marks
// the test failed on timeout but returns (Errorf, not Fatalf) so it
// is safe from helper goroutines: callers must keep unblocking their
// peers on the failure path to avoid hanging the test binary.
func waitFor(t *testing.T, cond func() bool, msg string) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timeout waiting for %s", msg)
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestFlightDeduplicates is the stampede test: K concurrent callers on
// one key must trigger exactly one execution of fn. It is
// deterministic — the leader blocks inside fn until every follower is
// parked on the call (observed via Waiting), so no follower can
// arrive late and become a second leader.
func TestFlightDeduplicates(t *testing.T) {
	const followers = 31
	var f Flight[int]
	var execs atomic.Int32
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, followers+1)
	sharedCount := atomic.Int32{}
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.DoCtx(context.Background(), "k", func() (int, error) {
				execs.Add(1)
				close(leaderIn)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}

	<-leaderIn // exactly one goroutine entered fn
	waitFor(t, func() bool { return f.Waiting("k") == followers },
		"all followers parked on the in-flight call")
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want exactly 1", n)
	}
	if n := sharedCount.Load(); n != followers {
		t.Fatalf("shared=true for %d callers, want %d", n, followers)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d after completion, want 0", f.Pending())
	}
}

// Sequential calls must re-run fn: Flight memoizes nothing.
func TestFlightSequentialReruns(t *testing.T) {
	var f Flight[string]
	execs := 0
	for i := 0; i < 3; i++ {
		v, shared, err := f.DoCtx(context.Background(), "k", func() (string, error) {
			execs++
			return "v", nil
		})
		if err != nil || shared || v != "v" {
			t.Fatalf("call %d: v=%q shared=%v err=%v", i, v, shared, err)
		}
	}
	if execs != 3 {
		t.Fatalf("fn executed %d times across sequential calls, want 3", execs)
	}
}

// The leader's error must reach every follower.
func TestFlightErrorShared(t *testing.T) {
	var f Flight[int]
	wantErr := errors.New("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var followerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-leaderIn
		_, shared, err := f.DoCtx(context.Background(), "k", func() (int, error) {
			t.Error("follower executed fn")
			return 0, nil
		})
		if !shared {
			t.Error("follower was not shared")
		}
		followerErr = err
	}()

	go func() {
		<-leaderIn
		waitFor(t, func() bool { return f.Waiting("k") == 1 }, "follower parked")
		close(release)
	}()

	_, _, err := f.DoCtx(context.Background(), "k", func() (int, error) {
		close(leaderIn)
		<-release
		return 0, wantErr
	})
	<-done
	if !errors.Is(err, wantErr) || !errors.Is(followerErr, wantErr) {
		t.Fatalf("leader err = %v, follower err = %v, want %v", err, followerErr, wantErr)
	}
}

// A panicking leader must propagate its panic, release the key, and
// hand followers an ErrLeaderPanic — never a zero value with nil error.
func TestFlightLeaderPanic(t *testing.T) {
	var f Flight[int]
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	followerDone := make(chan struct{})
	var followerVal int
	var followerShared bool
	var followerErr error
	go func() {
		defer close(followerDone)
		<-leaderIn
		followerVal, followerShared, followerErr = f.DoCtx(context.Background(), "k", func() (int, error) {
			t.Error("follower executed fn")
			return 0, nil
		})
	}()
	go func() {
		<-leaderIn
		waitFor(t, func() bool { return f.Waiting("k") == 1 }, "follower parked")
		close(release)
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		f.DoCtx(context.Background(), "k", func() (int, error) {
			close(leaderIn)
			<-release
			panic("boom")
		})
	}()
	<-followerDone

	if followerVal != 0 || !followerShared || !errors.Is(followerErr, ErrLeaderPanic) {
		t.Fatalf("follower got (%d, %v, %v), want (0, true, ErrLeaderPanic)", followerVal, followerShared, followerErr)
	}
	if f.Pending() != 0 {
		t.Fatalf("key not released after panic: Pending = %d", f.Pending())
	}
	// The key must be reusable afterwards.
	v, shared, err := f.DoCtx(context.Background(), "k", func() (int, error) { return 9, nil })
	if v != 9 || shared || err != nil {
		t.Fatalf("post-panic Do = (%d, %v, %v), want (9, false, nil)", v, shared, err)
	}
}

// A follower whose context ends while parked unblocks immediately
// with the context's error; the leader's computation is unaffected.
func TestFlightFollowerCancellation(t *testing.T) {
	var f Flight[int]
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, shared, err := f.DoCtx(context.Background(), "k", func() (int, error) {
			close(leaderIn)
			<-release
			return 42, nil
		})
		if v != 42 || shared || err != nil {
			t.Errorf("leader got (%d, %v, %v), want (42, false, nil)", v, shared, err)
		}
	}()

	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		_, shared, err := f.DoCtx(ctx, "k", func() (int, error) {
			t.Error("cancelled follower executed fn")
			return 0, nil
		})
		if !shared || !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled follower got (shared=%v, err=%v), want (true, context.Canceled)", shared, err)
		}
	}()
	waitFor(t, func() bool { return f.Waiting("k") == 1 }, "follower parked")
	cancel()
	<-followerDone // unblocks while the leader is still computing
	if n := f.Waiting("k"); n != 0 {
		t.Fatalf("Waiting = %d after follower cancellation, want 0", n)
	}
	close(release)
	<-leaderDone
}

// Distinct keys never wait on each other.
func TestFlightDistinctKeysIndependent(t *testing.T) {
	var f Flight[int]
	blockA := make(chan struct{})
	aIn := make(chan struct{})
	go f.DoCtx(context.Background(), "a", func() (int, error) { close(aIn); <-blockA; return 0, nil })
	<-aIn
	v, shared, err := f.DoCtx(context.Background(), "b", func() (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Fatalf("Do(b) = %d, %v, %v while a in flight", v, shared, err)
	}
	if f.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (only a)", f.Pending())
	}
	close(blockA)
}
