package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ErrDAGCycle reports that RunDAG's dependency lists contain a cycle,
// so some tasks could never become ready.
var ErrDAGCycle = errors.New("par: dependency cycle")

// DAGStats reports scheduling facts of one RunDAG execution.
type DAGStats struct {
	// ReadyPeak is the maximum number of tasks that were
	// simultaneously ready — dependencies satisfied, not yet started.
	// It bounds the parallelism the DAG's shape made available: a
	// chain peaks at 1 regardless of workers, a wide independent set
	// peaks near its width.
	ReadyPeak int
}

// RunDAG executes tasks 0..len(deps)-1 on a bounded worker pool,
// honoring the dependency lists: task i starts only after every task
// in deps[i] finished. Ready tasks are dispatched the moment their
// last dependency completes — no wave barriers — so independent
// subtrees of the DAG run concurrently; tasks ready at the same time
// start in index order. deps must be acyclic; RunDAG returns
// ErrDAGCycle without running anything otherwise.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 executes ready tasks
// one at a time on one goroutine. A task that panics fails with a
// *PanicError, at any worker count. The error of the lowest-indexed
// failing task is returned. After a failure no higher-indexed task
// starts, no task whose dependency failed or was skipped starts, and
// once ctx is done nothing starts at all; skipped tasks are still
// released, so the call terminates promptly, and ctx.Err() is reported
// when no task failed. When every dependency has a lower index than
// its dependent — the call-graph component order, or no dependencies
// at all — the returned error is therefore independent of the
// schedule.
//
// Determinism contract: f writes its result into an index-addressed
// slot, so outputs are independent of the schedule; only wall time
// changes.
func RunDAG(ctx context.Context, deps [][]int, workers int, f func(i int) error) (DAGStats, error) {
	n := len(deps)
	if n == 0 {
		return DAGStats{}, nil
	}

	indeg := make([]int32, n)
	dependents := make([][]int, n)
	for i, ds := range deps {
		indeg[i] = int32(len(ds))
		for _, d := range ds {
			dependents[d] = append(dependents[d], i)
		}
	}

	// Kahn pre-pass on a scratch copy: a cycle would leave the worker
	// loop below waiting forever for tasks that can never become ready.
	{
		scratch := make([]int32, n)
		copy(scratch, indeg)
		queue := make([]int, 0, n)
		for i, d := range scratch {
			if d == 0 {
				queue = append(queue, i)
			}
		}
		processed := 0
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			processed++
			for _, dep := range dependents[i] {
				if scratch[dep]--; scratch[dep] == 0 {
					queue = append(queue, dep)
				}
			}
		}
		if processed != n {
			return DAGStats{}, ErrDAGCycle
		}
	}

	b := telemetry.B()
	if b != nil {
		b.ParLoops.Inc()
		b.ParTasks.Add(int64(n))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Every task that a completion releases becomes ready in one step,
	// so ReadyPeak sees a fan-out's full width before any worker can
	// claim part of it.
	ready := make(chan int, n)
	var mu sync.Mutex
	readyNow, readyPeak := 0, 0
	enqueue := func(ts ...int) {
		mu.Lock()
		readyNow += len(ts)
		readyPeak = max(readyPeak, readyNow)
		mu.Unlock()
		for _, i := range ts {
			ready <- i
		}
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			enqueue(i)
		}
	}

	// errs[i] is task i's error, or errSkipped when it did not run; a
	// task starts only when all its dependencies' slots are nil.
	errs := make([]error, n)
	lowestFailed := n // guarded by mu
	var completed int32

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var released []int
			for i := range ready {
				mu.Lock()
				readyNow--
				queued, run := readyNow, i < lowestFailed
				mu.Unlock()
				run = run && ctx.Err() == nil
				for _, d := range deps[i] {
					run = run && errs[d] == nil
				}
				errs[i] = errSkipped
				if run {
					if b != nil {
						b.ParQueueDepth.Set(int64(queued))
						b.ParBusyWorkers.Add(1)
					}
					errs[i] = runTask(f, i)
					if b != nil {
						b.ParBusyWorkers.Add(-1)
					}
					if errs[i] != nil {
						mu.Lock()
						lowestFailed = min(lowestFailed, i)
						mu.Unlock()
					}
				}
				// Complete the task even when it was skipped or failed:
				// dependents must flow through so every worker's range
				// loop terminates.
				released = released[:0]
				for _, dep := range dependents[i] {
					if atomic.AddInt32(&indeg[dep], -1) == 0 {
						released = append(released, dep)
					}
				}
				enqueue(released...)
				if atomic.AddInt32(&completed, 1) == int32(n) {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	if b != nil {
		b.ParQueueDepth.Set(0)
	}

	stats := DAGStats{ReadyPeak: readyPeak}
	for _, err := range errs {
		if err != nil && err != errSkipped {
			return stats, err
		}
	}
	return stats, ctx.Err()
}

// runTask runs f(i), recovering a panic into a *PanicError.
func runTask(f func(i int) error, i int) (err error) {
	defer recoverInto(&err)
	return f(i)
}

// errSkipped marks a task RunDAG released without running.
var errSkipped = errors.New("par: task skipped")
