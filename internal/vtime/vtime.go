// Package vtime provides the two clocks used throughout the reproduction:
// Real, the time package's, and Manual, which a test steps itself.
//
// All components that wait, time out, or timestamp events take a Clock
// instead of calling the time package directly. Production runs on Real.
// So do the experiments, the test fixtures and the examples, inside a
// testing/synctest bubble (package bubble), where the time package's
// clock is virtual: it stands still while any goroutine can run and jumps
// to the next deadline once none can, as in a discrete-event simulator.
package vtime

import (
	"slices"
	"sync"
	"time"
)

// Clock is the minimal time source used by every simulated and real
// component in the repository.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time after d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// AfterFunc calls f once d has elapsed on this clock unless the Timer
	// is stopped first; no goroutine waits meanwhile.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call, as *time.Timer is: Stop reports
// whether it prevented the call, false once the call was made or stopped.
type Timer interface {
	Stop() bool
}

// Real is a Clock backed directly by the time package.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Manual is a Clock advanced explicitly by tests. Sleepers block, and
// AfterFunc calls wait, until Advance moves the clock past their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

// waiter is one pending AfterFunc call (a sleeper's is its channel send),
// made by Advance.
type waiter struct {
	c        *Manual
	deadline time.Time
	f        func()
}

// NewManual returns a Manual clock positioned at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (c *Manual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock: it blocks until Advance pushes the clock to or
// past now+d.
func (c *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-c.After(d)
}

// After implements Clock: a channel nobody reads costs a waiter, no
// goroutine.
func (c *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

// AfterFunc implements Clock: the Advance that reaches now+d calls f on
// its caller's goroutine, and d <= 0 calls f before AfterFunc returns.
func (c *Manual) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	w := &waiter{c: c, deadline: c.now.Add(d), f: f}
	if d > 0 {
		c.waiters = append(c.waiters, w)
	}
	c.mu.Unlock()
	if d <= 0 {
		f()
	}
	return w
}

// Stop implements Timer: it takes the waiter off the clock.
func (w *waiter) Stop() bool {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	i := slices.Index(w.c.waiters, w)
	if i >= 0 {
		w.c.waiters = slices.Delete(w.c.waiters, i, i+1)
	}
	return i >= 0
}

// Advance moves the clock forward by d, releasing every sleeper and
// making every AfterFunc call whose deadline it reached.
func (c *Manual) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	remaining := c.waiters[:0]
	var fire []*waiter
	for _, w := range c.waiters {
		if !w.deadline.After(now) {
			fire = append(fire, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	clear(c.waiters[len(remaining):])
	c.waiters = remaining
	c.mu.Unlock()
	for _, w := range fire {
		w.f()
	}
}

// Pending reports how many sleepers are currently blocked and AfterFunc
// calls not yet made; useful for deterministic tests that advance the
// clock only once all actors wait.
func (c *Manual) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
