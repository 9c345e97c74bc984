package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachIndexedErrorPriority: the lowest-indexed task error wins
// over a later cancellation.
func TestForEachIndexedErrorPriority(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachIndexed(100, 8, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestPoolBackpressure: a full admission queue rejects with
// ErrQueueFull instead of blocking, and frees up once tasks drain.
func TestPoolBackpressure(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Drain()
	gate := make(chan struct{})
	running := make(chan struct{})
	// First task occupies the worker...
	if err := p.Submit(context.Background(), func(context.Context) {
		close(running)
		<-gate
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	// ...second fills the queue slot...
	if err := p.Submit(context.Background(), func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	// ...third must shed.
	if err := p.Submit(context.Background(), func(context.Context) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(gate)
}

// TestPoolDrain: Drain runs every admitted task to completion and
// rejects later submissions.
func TestPoolDrain(t *testing.T) {
	p := NewPool(2, 16)
	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		if err := p.Submit(context.Background(), func(context.Context) {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	if n := ran.Load(); n != 10 {
		t.Fatalf("ran %d tasks, want 10 (drain abandoned admitted work)", n)
	}
	if err := p.Submit(context.Background(), func(context.Context) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	p.Drain() // idempotent
}

// TestPoolSkipsDeadRequests: a task whose context died while queued is
// never started.
func TestPoolSkipsDeadRequests(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Drain()
	gate := make(chan struct{})
	running := make(chan struct{})
	if err := p.Submit(context.Background(), func(context.Context) {
		close(running)
		<-gate
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Bool
	if err := p.Submit(ctx, func(context.Context) { started.Store(true) }); err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)
	p.Drain()
	if started.Load() {
		t.Fatal("task with a dead context was started")
	}
}

// TestPoolAssist: Assist hands work to an idle worker without touching
// the admission queue, and reports false the instant no worker is
// free — the caller's cue to run the work itself.
func TestPoolAssist(t *testing.T) {
	p := NewPool(2, 4)
	gate := make(chan struct{})
	running := make(chan struct{})
	if err := p.Submit(context.Background(), func(context.Context) {
		close(running)
		<-gate
	}); err != nil {
		t.Fatal(err)
	}
	<-running

	// One worker busy, one idle: Assist must land (the idle worker may
	// take a beat to reach its select, so poll briefly).
	assisted := make(chan struct{})
	ok := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if p.Assist(context.Background(), func(context.Context) {
			close(assisted)
			<-gate
		}) {
			ok = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatal("Assist never reached the idle worker")
	}
	<-assisted

	// Both workers busy: Assist must refuse immediately.
	if p.Assist(context.Background(), func(context.Context) {}) {
		t.Fatal("Assist accepted work with every worker busy")
	}

	close(gate)
	p.Drain()
	if p.Assist(context.Background(), func(context.Context) {}) {
		t.Fatal("Assist accepted work after Drain")
	}
}

// TestPanicsBecomeErrors: a task that panics fails with a *PanicError
// carrying its stack, at every worker count, and the Pool keeps
// serving after one of its tasks panicked.
func TestPanicsBecomeErrors(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		err := ForEachIndexed(8, workers, func(i int) error {
			if i == 5 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: err = %v, want a *PanicError with a stack", workers, err)
		}
	}

	p := NewPool(1, 4)
	defer p.Drain()
	err := p.Do(context.Background(), func(context.Context) error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do: err = %v, want a *PanicError", err)
	}
	if err := p.Submit(context.Background(), func(context.Context) { panic("dropped") }); err != nil {
		t.Fatal(err)
	}
	want := errors.New("after")
	if err := p.Do(context.Background(), func(context.Context) error { return want }); err != want {
		t.Fatalf("Do after panics: err = %v, want %v", err, want)
	}
}
