package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sample is what the load loops record per operation.
type sample struct {
	At      time.Duration // when it was due (open loop) or sent (closed loop), from the loop's start
	Latency time.Duration // open loop: from the due instant; closed loop: service time
	Lag     time.Duration // open loop only: how late the generator sent it
	OK      bool
}

// schedule hands out the operations of an open loop: operation i is due
// at start + i*period, whatever happened to the ones before it.
type schedule struct {
	start  time.Time
	period time.Duration
	n      int64
	next   atomic.Int64
}

func newSchedule(start time.Time, rate float64, n int) *schedule {
	return &schedule{start: start, period: time.Duration(float64(time.Second) / rate), n: int64(n)}
}

// claim returns the next operation and its due instant; false once every
// operation has been handed out.
func (s *schedule) claim() (int, time.Time, bool) {
	i := s.next.Add(1) - 1
	if i >= s.n {
		return 0, time.Time{}, false
	}
	return int(i), s.start.Add(time.Duration(i) * s.period), true
}

// openLoopTimes does the due-time accounting of one open-loop operation.
// free is when the worker became ready to send it, begin when it actually
// sent it and end when the reply was complete. Latency runs from the due
// instant, so a stall that holds later operations back is charged to
// each of them; lag is how late the sender itself was — the time between
// the moment it could have sent (due, or free if it was busy until after
// due) and the moment it did.
func openLoopTimes(due, free, begin, end time.Time) (latency, lag time.Duration) {
	ready := due
	if free.After(due) {
		ready = free
	}
	return end.Sub(due), begin.Sub(ready)
}

// timerSlack is how late time.Sleep may return: the runtime's network
// poller waits in whole milliseconds, so a sleeping goroutine wakes up to
// about a millisecond after its deadline. An open loop that slept to each
// due instant charged that lateness — half a millisecond at the median —
// to every operation's latency.
const timerSlack = 1500 * time.Microsecond

// sleepUntil returns at t rather than up to a millisecond after it: it
// sleeps until timerSlack before t, then yields the processor in a loop
// until t, so a goroutine with work to do still gets to run.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpenLoop sends n operations at a fixed rate from `workers`
// goroutines, calling do(i) for operation i, and returns one sample per
// operation, indexed by operation.
func runOpenLoop(rate float64, n, workers int, do func(i int) bool) []sample {
	out := make([]sample, n)
	sch := newSchedule(time.Now().Add(5*time.Millisecond), rate, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, due, ok := sch.claim()
				if !ok {
					return
				}
				free := time.Now()
				if free.Before(due) {
					sleepUntil(due)
				}
				begin := time.Now()
				okOp := do(i)
				lat, lag := openLoopTimes(due, free, begin, time.Now())
				out[i] = sample{At: due.Sub(sch.start), Latency: lat, Lag: lag, OK: okOp}
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosedLoop runs `clients` goroutines that each send their next
// operation as soon as the previous one returns, until d has passed or
// n operations were sent. It returns the samples of the operations sent,
// indexed by operation, and the time the loop took.
func runClosedLoop(d time.Duration, n, clients int, do func(i int) bool) ([]sample, time.Duration) {
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				begin := time.Now()
				okOp := do(int(i))
				out[i] = sample{At: begin.Sub(start), Latency: time.Since(begin), OK: okOp}
			}
		}()
	}
	wg.Wait()
	// Every claimed index below n was sent: the deadline is checked
	// before claiming.
	return out[:min(int(next.Load()), n)], time.Since(start)
}
