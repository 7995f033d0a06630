// Singleflight companion to the LRU: a cache bounds *memory*, but a
// cache alone does not bound *work*. When N concurrent requests miss
// on the same key — the classic stampede on a popular path right
// after start-up, eviction, or a model swap — all N run the same
// expensive distribution estimation. Flight collapses them: the first
// caller computes, the rest wait and share the one result.
package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrLeaderPanic is wrapped into the error followers receive when the
// leader's fn panicked instead of returning; the panic itself still
// propagates on the leader's goroutine.
var ErrLeaderPanic = errors.New("cache: in-flight computation panicked")

// Flight suppresses duplicate concurrent computations per string key.
// The zero value is ready to use. A Flight must not be copied after
// first use.
//
// Unlike the LRU it retains nothing: a key exists only while a
// computation for it is in flight, so sequential calls re-run fn.
// Compose it with an LRU (check the cache, then DoCtx, then fill the
// cache inside fn) to get bounded memory and bounded work.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one in-flight computation and its parked followers.
type call[V any] struct {
	done    chan struct{}
	waiters int
	val     V
	err     error
}

// DoCtx returns the result of fn for key, running fn at most once
// among concurrent callers: the first caller (the leader) executes fn
// while the rest block and then share the leader's value and error.
// shared is true for followers and false for the leader. Once the
// leader returns, the key is forgotten; a later DoCtx with the same
// key runs fn again.
//
// fn runs on the leader's goroutine without any Flight lock held, so
// it may itself use the Flight with other keys. If fn panics, the
// panic propagates on the leader's goroutine while the key is
// released and every follower receives the zero V and an error
// wrapping ErrLeaderPanic — never a nil error with a zero value.
//
// A follower whose ctx ends stops waiting and returns ctx's error
// immediately (shared is true — the computation belonged to someone
// else and continues unaffected, still filling any cache the leader's
// fn writes to). The leader itself is committed once fn starts and
// ignores ctx; cancel inside fn if leader abandonment is needed.
func (f *Flight[V]) DoCtx(ctx context.Context, key string, fn func() (V, error)) (val V, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*call[V])
	}
	if c, ok := f.calls[key]; ok {
		c.waiters++
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			f.mu.Lock()
			if f.calls[key] == c {
				c.waiters--
			}
			f.mu.Unlock()
			var zero V
			return zero, true, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			c.err = fmt.Errorf("%w (key %q)", ErrLeaderPanic, key)
		}
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	completed = true
	return c.val, false, c.err
}
