package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// call is one in-flight computation: followers block on done and read the
// leader's result.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// flight coalesces concurrent identical requests: the first caller for a
// key becomes the leader and computes; every caller that arrives while the
// leader is in flight waits for the leader's result instead of repeating
// the work (hand-rolled singleflight, stdlib only). N concurrent identical
// runs therefore cost one lab evaluation — the concurrent twin of the
// result cache's W2 remedy.
type flight struct {
	mu    sync.Mutex
	calls map[string]*call
	// waiting counts followers currently parked behind a leader; /metrics
	// exposes it as the serve.coalesce_waiting gauge.
	waiting atomic.Int64
}

func newFlight() *flight { return &flight{calls: make(map[string]*call)} }

// do runs fn under the key, coalescing with an in-flight leader if one
// exists. It returns fn's result, and coalesced=true when this caller
// followed a leader rather than computing. A follower whose ctx expires
// stops waiting and returns ctx.Err(); the leader (whose own ctx governs
// fn) keeps running for the remaining followers.
func (f *flight) do(ctx context.Context, key string, fn func() (any, error)) (val any, coalesced bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		f.waiting.Add(1)
		defer f.waiting.Add(-1)
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// waiters returns the number of followers currently parked behind leaders.
func (f *flight) waiters() int64 { return f.waiting.Load() }
