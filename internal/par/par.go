// Package par provides the bounded concurrency primitives shared by
// the allocator driver, the experiment harness, and the allocation
// daemon: a dependency-aware task scheduler (RunDAG), the
// index-parallel loop built on it (ForEachIndexed), and a server-grade
// worker pool with a bounded admission queue (Pool).
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/telemetry"
)

// PanicError is a task's panic, recovered on the goroutine that ran it
// and returned as the task's error: one allocation that panics fails
// its own request or loop instead of ending the process.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task panicked: %v\n%s", e.Value, e.Stack)
}

// Catch runs f and returns its error, or a *PanicError if f panics.
func Catch(f func() error) (err error) {
	defer recoverInto(&err)
	return f()
}

// recoverInto, deferred, turns a panic of the deferring call into a
// *PanicError stored in *err.
func recoverInto(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// ForEachIndexed runs f(0)..f(n-1) on a bounded worker pool and returns
// the error of the lowest-indexed failing call, or nil. It is RunDAG
// over n tasks with no dependencies: workers <= 0 selects GOMAXPROCS,
// workers == 1 runs the calls one at a time in index order, and once a
// call fails no higher index starts.
//
// Determinism contract: f writes its result into an index-addressed
// slot of a caller-owned slice, never appends to shared state, so the
// collected results are identical to a sequential loop regardless of
// scheduling — only wall time changes. Callers print or merge strictly
// after ForEachIndexed returns.
func ForEachIndexed(n, workers int, f func(i int) error) error {
	_, err := RunDAG(context.Background(), make([][]int, n), workers, f)
	return err
}

// ---------------------------------------------------------------------
// Worker pool

// ErrQueueFull reports that the pool's bounded admission queue had no
// room for the task. The allocation daemon maps it to HTTP 429: under
// saturation, shedding load at admission beats queueing without bound.
var ErrQueueFull = errors.New("par: admission queue full")

// ErrPoolClosed reports a Submit after Close/Drain began.
var ErrPoolClosed = errors.New("par: pool closed")

// Pool is a long-lived worker pool with a bounded admission queue —
// the execution layer of the allocation daemon. Tasks are submitted
// with a context and run on one of a fixed set of workers; when every
// worker is busy and the queue is full, Submit fails fast with
// ErrQueueFull (backpressure) instead of queueing unboundedly.
// Drain stops admission and waits for queued and running tasks to
// finish — the daemon's graceful-shutdown path. A task that panics
// never takes its worker down: Do returns the panic as a *PanicError,
// and a Submit or Assist task's panic is recovered and dropped.
type Pool struct {
	queue chan task
	// assist is the unbuffered side door of Assist: a send succeeds
	// only while some worker is idle in its select, so assisted tasks
	// never consume admission-queue capacity and never wait.
	assist chan task
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool

	// QueueDepth and Busy, when non-nil, track the number of admitted-
	// but-not-started tasks and the number of running tasks. The daemon
	// wires them to its request telemetry gauges.
	QueueDepth *telemetry.Gauge
	Busy       *telemetry.Gauge
}

type task struct {
	ctx context.Context
	run func(ctx context.Context)
	// done, when non-nil, receives the task's panic (nil if it
	// returned) or the context error of a task that never started.
	done chan error
}

// NewPool starts a pool of workers goroutines with an admission queue
// of queueSize tasks beyond the ones being executed. workers <= 0
// selects GOMAXPROCS; queueSize < 0 selects 0 (admission only when a
// worker is free to take the task soon).
func NewPool(workers, queueSize int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueSize < 0 {
		queueSize = 0
	}
	p := &Pool{queue: make(chan task, queueSize), assist: make(chan task)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case t, ok := <-p.queue:
					if !ok {
						return
					}
					p.QueueDepth.Add(-1)
					p.exec(t)
				case t := <-p.assist:
					p.exec(t)
				}
			}
		}()
	}
	return p
}

// exec runs one task on the calling worker goroutine.
func (p *Pool) exec(t task) {
	// A task whose request died while queued is not worth starting.
	err := t.ctx.Err()
	if err == nil {
		p.Busy.Add(1)
		err = Catch(func() error { t.run(t.ctx); return nil })
		p.Busy.Add(-1)
	}
	if t.done != nil {
		t.done <- err
	}
}

// Do admits run like Submit and waits until it has finished or ctx is
// done. It returns Submit's refusal, run's error, a *PanicError if run
// panicked, or ctx.Err() when the context ends first; in that last
// case run may still be executing.
func (p *Pool) Do(ctx context.Context, run func(ctx context.Context) error) error {
	var err error
	done := make(chan error, 1)
	if serr := p.submit(task{ctx: ctx, run: func(ctx context.Context) { err = run(ctx) }, done: done}); serr != nil {
		return serr
	}
	select {
	case perr := <-done:
		if perr != nil {
			return perr
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit offers run to the pool. It returns nil when the task was
// admitted (run will be called with ctx on a worker goroutine, unless
// ctx is already done by then), ErrQueueFull when the queue is full,
// and ErrPoolClosed after Drain began. Submit never blocks on a full
// queue — that is the backpressure contract.
func (p *Pool) Submit(ctx context.Context, run func(ctx context.Context)) error {
	return p.submit(task{ctx: ctx, run: run})
}

func (p *Pool) submit(t task) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.queue <- t:
		p.QueueDepth.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// Assist offers run to an idle worker, bypassing the admission queue:
// it succeeds only when some worker is waiting for work at this
// instant, and reports whether the task was taken. Admitted units use
// it to fan their internal items out over spare capacity — a batch
// occupies one admission slot, and Assist lends it whatever workers
// happen to be free — without ever displacing or delaying admission
// of other requests. Callers must be prepared to run the work
// themselves when Assist returns false.
func (p *Pool) Assist(ctx context.Context, run func(ctx context.Context)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.assist <- task{ctx: ctx, run: run}:
		return true
	default:
		return false
	}
}

// Drain stops admission and waits until every queued and running task
// has finished. Safe to call more than once.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
