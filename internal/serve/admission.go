package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"tenways/internal/serve/sim"
)

// errQueueFull is returned by acquire when the wait queue is at capacity;
// the handler maps it to 429 + Retry-After. Rejecting at the door instead
// of queueing without bound is the daemon applying the lab's own W2/W10
// advice to itself: work that cannot start soon is waste-in-waiting.
var errQueueFull = errors.New("serve: admission queue full")

// admission is the bounded two-stage gate in front of the lab: `parallel`
// slots run, up to `queueDepth` callers wait for a slot in FIFO order, and
// everyone past that is rejected immediately. The decision is sim.Admit,
// the rule T12's simulator applies, and a freed slot passes to the oldest
// waiter, as there. Each waiter blocks on its own channel.
type admission struct {
	mu             sync.Mutex
	busy           int
	queue          []chan struct{} // FIFO of waiting callers
	workers, depth int
}

func newAdmission(parallel, queueDepth int) *admission {
	return &admission{workers: parallel, depth: queueDepth}
}

// acquire obtains a run slot, waiting in the bounded queue if necessary.
// It returns the release function and the time spent waiting, errQueueFull
// when the queue is at capacity, or ctx.Err() when the caller's deadline
// expires while queued.
func (a *admission) acquire(ctx context.Context) (release func(), waited time.Duration, err error) {
	a.mu.Lock()
	switch sim.Admit(a.busy, len(a.queue), a.workers, a.depth) {
	case sim.Run:
		a.busy++
		a.mu.Unlock()
		return a.release, 0, nil
	case sim.Reject:
		a.mu.Unlock()
		return nil, 0, errQueueFull
	}
	granted := make(chan struct{})
	a.queue = append(a.queue, granted)
	a.mu.Unlock()
	start := time.Now()
	select {
	case <-granted:
		return a.release, time.Since(start), nil
	case <-ctx.Done():
	}
	a.mu.Lock()
	i := slices.Index(a.queue, granted)
	if i >= 0 {
		a.queue = slices.Delete(a.queue, i, i+1)
	}
	a.mu.Unlock()
	if i < 0 { // handed a slot while giving up: pass it on
		a.release()
	}
	return nil, time.Since(start), ctx.Err()
}

// release frees a run slot, handing it straight to the oldest waiter.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.queue) == 0 {
		a.busy--
		return
	}
	close(a.queue[0])
	a.queue = a.queue[1:]
}

// queued returns the current number of waiting callers.
func (a *admission) queued() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(len(a.queue))
}

// running returns the number of occupied run slots.
func (a *admission) running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.busy
}
