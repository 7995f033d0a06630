package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// InUse is the number of slots held.
func (g *Gate) InUse() int { return len(g.sem) }

// waitQueued spins until n requests wait for a slot.
func waitQueued(t *testing.T, g *Gate, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Queued.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", g.Queued.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGate pins the admission contract both tiers share; run it under
// -race.
func TestGate(t *testing.T) {
	t.Run("a free slot never queues, so an idle tier never sheds", func(t *testing.T) {
		g := NewGate(2, 1, 0, "test overloaded, retry later")
		for i := 0; i < 2; i++ {
			if !g.Acquire(context.Background()) {
				t.Fatal("a free slot was refused")
			}
		}
		if q := g.Queued.Load(); q != 0 {
			t.Fatalf("queued = %d after taking free slots", q)
		}
		if rec := httptest.NewRecorder(); g.ShedIfOverloaded(rec) {
			t.Fatalf("an idle queue shed: %d %s", rec.Code, rec.Body)
		}
		g.Release()
		g.Release()
		if n := g.InUse(); n != 0 {
			t.Fatalf("%d slots held after release", n)
		}
	})

	t.Run("shedding starts exactly at MaxQueue waiters", func(t *testing.T) {
		g := NewGate(1, 2, 0, "test overloaded, retry later")
		g.Acquire(context.Background())
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan bool, 2)
		for waiters := int64(1); waiters <= 2; waiters++ {
			rec := httptest.NewRecorder()
			if g.ShedIfOverloaded(rec) {
				t.Fatalf("shed with %d of 2 waiters", waiters-1)
			}
			go func() { got <- g.Acquire(ctx) }()
			waitQueued(t, g, waiters)
		}
		rec := httptest.NewRecorder()
		if !g.ShedIfOverloaded(rec) {
			t.Fatal("a full queue did not shed")
		}
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" ||
			rec.Body.String() != "{\"error\":\"test overloaded, retry later\"}\n" {
			t.Fatalf("shed answer %d Retry-After %q %q", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
		if g.Shed.Load() != 1 || g.Rejected.Load() != 1 {
			t.Fatalf("shed %d rejected %d, want 1 and 1", g.Shed.Load(), g.Rejected.Load())
		}
		cancel()
		for i := 0; i < 2; i++ {
			if <-got {
				t.Fatal("a cancelled waiter took a slot")
			}
		}
		if g.Abandoned.Load() != 2 || g.Queued.Load() != 0 || g.InUse() != 1 {
			t.Fatalf("abandoned %d queued %d in use %d, want 2, 0, 1", g.Abandoned.Load(), g.Queued.Load(), g.InUse())
		}
	})

	t.Run("a dead context counts one abandoned and takes no slot", func(t *testing.T) {
		g := NewGate(1, 0, 0, "")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if g.Acquire(ctx) {
			t.Fatal("a dead context took a slot")
		}
		if g.Abandoned.Load() != 1 || g.InUse() != 0 || g.Queued.Load() != 0 {
			t.Fatalf("abandoned %d in use %d queued %d, want 1, 0, 0", g.Abandoned.Load(), g.InUse(), g.Queued.Load())
		}
	})

	t.Run("an expired deadline maps to 504", func(t *testing.T) {
		g := NewGate(1, 0, 0, "")
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if g.Acquire(ctx) {
			t.Fatal("an expired context took a slot")
		}
		if status, msg := g.Expired(ctx); status != http.StatusGatewayTimeout || msg != "deadline exceeded" {
			t.Fatalf("expired deadline maps to %d %q", status, msg)
		}
		// A deadline that expires in the queue is a 504 too, and neither
		// is a client that hung up.
		g.Acquire(context.Background())
		qctx, qcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer qcancel()
		if g.Acquire(qctx) {
			t.Fatal("a waiter took a held slot")
		}
		if n := g.Abandoned.Load(); n != 0 {
			t.Fatalf("two expired deadlines counted %d abandoned, want 0", n)
		}
	})

	t.Run("a cancellation maps to writing nothing", func(t *testing.T) {
		g := NewGate(1, 0, 0, "")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		status, msg := g.Expired(ctx)
		if status != 0 || msg != "" {
			t.Fatalf("cancellation maps to %d %q, want 0", status, msg)
		}
		rec := httptest.NewRecorder()
		g.Answer(rec, status, msg, nil)
		if rec.Body.Len() != 0 || g.Served.Load()+g.Rejected.Load() != 0 {
			t.Fatalf("status 0 wrote %q (served %d rejected %d)", rec.Body, g.Served.Load(), g.Rejected.Load())
		}
	})
}
