package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request: when it was due, when a sender got
// to it, and when it completed, all relative to the phase start.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is the request's time from its due time to completion; a
// failed request never met any limit and counts as +Inf.
func (s sample) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return ms(s.done - s.due)
}

// late is how far behind schedule the generator sent the request.
func (s sample) late() float64 { return ms(s.sent - s.due) }

// openLoop issues n requests on a fixed schedule, request i due at
// i*interval after the start, from senders goroutines. A request is
// timed from its due time, so a stall that delays later requests counts
// against them too. send reports whether the request succeeded with a
// correct response.
func openLoop(n int, interval time.Duration, senders int, send func(i int) bool) []sample {
	samples := make([]sample, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := send(i)
				samples[i] = sample{due: due, sent: sent, done: time.Since(start), ok: ok}
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop keeps senders requests in flight until d has passed or
// limit requests were issued, each sender waiting for its reply before
// sending again. It returns the latency in ms of each issued request,
// +Inf for one that did not return a correct response, how many of them
// succeeded, and the elapsed time.
func closedLoop(d time.Duration, limit, senders int, send func(i int) bool) (lat []float64, ok int, elapsed time.Duration) {
	lat = make([]float64, limit)
	start := time.Now()
	var next, good atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				t0 := time.Now()
				if send(i) {
					lat[i] = ms(time.Since(t0))
					good.Add(1)
				} else {
					lat[i] = math.Inf(1)
				}
			}
		}()
	}
	wg.Wait()
	return lat[:min(next.Load(), int64(limit))], int(good.Load()), time.Since(start)
}
