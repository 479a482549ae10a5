// Package vtime provides clock abstractions used throughout the
// reproduction: a real clock, a scaled clock that dilates time, a
// manually stepped clock for deterministic tests, and an event clock
// that steps itself.
//
// All components that wait, time out, or timestamp events take a Clock
// instead of calling the time package directly. The experiments run the
// full protocol stack on an Auto clock: virtual time stands still while
// any goroutine can run and jumps to the next deadline once none can, as
// in a discrete-event simulator. A 60-second transfer then takes as much
// host time as its bytes cost to move, and no host — however slow, with
// or without the race detector — can stretch or shrink a modelled
// duration.
package vtime

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
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

// MinSleep reports the shortest sleep the OS honours accurately.
func (Real) MinSleep() time.Duration { return time.Millisecond }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Scaled is a Clock that runs Scale times faster than wall-clock time.
// A Scale of 100 means one real second covers 100 virtual seconds, so a
// component sleeping for a virtual minute blocks for 600ms of real time.
//
// The virtual epoch is fixed at construction, which makes experiment
// timelines start at t=0 regardless of wall-clock start time.
type Scaled struct {
	scale float64
	epoch time.Time // virtual time at start
	start time.Time // real time at start
}

// NewScaled returns a clock running scale× real time. scale must be
// positive; NewScaled panics otherwise because a zero or negative scale is
// always a programming error, never a runtime condition.
func NewScaled(scale float64) *Scaled {
	if scale <= 0 {
		panic("vtime: non-positive scale")
	}
	return &Scaled{
		scale: scale,
		epoch: time.Unix(0, 0).UTC(),
		start: time.Now(),
	}
}

// MinSleep reports the shortest virtual sleep this clock honours with
// reasonable accuracy. The OS sleeps reliably down to about a
// millisecond of real time; anything shorter is better skipped by pacing
// code and carried as debt.
func (c *Scaled) MinSleep() time.Duration {
	return time.Duration(float64(time.Millisecond) * c.scale)
}

// Now implements Clock.
func (c *Scaled) Now() time.Time {
	real := time.Since(c.start)
	return c.epoch.Add(time.Duration(float64(real) * c.scale))
}

// Sleep implements Clock. It blocks for d/scale of real time.
func (c *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) / c.scale))
}

// After implements Clock; a channel nobody reads costs a timer, no goroutine.
func (c *Scaled) After(d time.Duration) <-chan time.Time { return after(c, d) }

// after is After built on c's AfterFunc.
func after(c Clock, d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

// AfterFunc implements Clock: f runs after d/scale of real time.
func (c *Scaled) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(time.Duration(float64(d)/c.scale), f)
}

// Manual is a Clock advanced explicitly by tests. Sleepers block, and
// AfterFunc calls wait, until Advance moves the clock past their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
	changes int // AfterFunc and Stop calls so far
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

// After implements Clock.
func (c *Manual) After(d time.Duration) <-chan time.Time { return after(c, d) }

// AfterFunc implements Clock: the Advance that reaches now+d calls f on
// its caller's goroutine, and d <= 0 calls f before AfterFunc returns.
func (c *Manual) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	c.changes++
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
	w.c.changes++
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

// Auto is a Manual clock that advances itself. Whenever no goroutine in
// the process can run, it jumps to the earliest pending deadline and
// releases everything due there at once; while any goroutine runs,
// virtual time stands still. So virtual time moves only by the durations
// the program sleeps, and host CPU spent between sleeps costs none of it.
//
// Auto asks the kernel, not the Go runtime: the process is parked when
// every thread but the clock's sleeps, in two looks with a real-time pause
// between them and no timer set meanwhile. So a goroutine blocked on a
// channel, a lock, a condition or an in-process pipe (netsim.Net) is
// parked, and one running, runnable, or in a system call that keeps its
// thread busy holds the clock. Real-time waits — a time.Sleep, a socket —
// count as parked, so virtual time may pass while one is outstanding.
// AfterFunc calls f on a goroutine of its own, as time.AfterFunc does.
// Auto reads /proc (Linux) and panics when it cannot.
type Auto struct {
	Manual
	stop, done chan struct{}
}

// NewAuto returns a running Auto clock at the Unix epoch, where Scaled's
// timelines start too. Stop it when done with it. The clock's look needs
// a second P beside its own, so NewAuto raises GOMAXPROCS to 2 if it is 1.
func NewAuto() *Auto {
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	c := &Auto{
		Manual: Manual{now: time.Unix(0, 0).UTC()},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.run()
	return c
}

// AfterFunc implements Clock: f runs on its own goroutine once the clock
// reaches now+d.
func (c *Auto) AfterFunc(d time.Duration, f func()) Timer {
	return c.Manual.AfterFunc(d, func() { go f() })
}

// MinSleep reports the shortest sleep pacing code should take on this
// clock: every sleep costs the clock a step, so a link carries a shorter
// wait as debt into its next one.
func (c *Auto) MinSleep() time.Duration { return time.Millisecond }

// Stop ends the clock's stepping and returns once its goroutine has
// exited. While the process stays parked the clock may first release
// waiters already due; a sleeper left after that waits for ever.
func (c *Auto) Stop() {
	close(c.stop)
	<-c.done
}

// run steps the clock to its earliest deadline whenever something waits
// on it and the process is parked in two looks in a row, with no timer
// set or stopped since the first began. Before each look it sleeps in
// real time: 10 µs after a step or a first parked look, up to 1 ms while
// looks find work going on. A sleep, unlike runtime.Gosched, frees the
// clock's thread to run what waits in its queues, and the timer that
// ends it wakes a thread for what waits in the runtime's global queue.
func (c *Auto) run() {
	defer close(c.done)
	backoff, seen := time.Duration(0), -1
	for {
		select {
		case <-time.After(backoff):
		case <-c.stop:
			return
		}
		c.mu.Lock()
		changes, pending := c.changes, len(c.waiters)
		c.mu.Unlock()
		switch {
		case pending == 0 || !parked():
			seen, backoff = -1, min(max(2*backoff, 10*time.Microsecond), time.Millisecond)
		case changes != seen:
			seen, backoff = changes, 10*time.Microsecond
		default:
			c.step()
			seen, backoff = -1, 10*time.Microsecond
		}
	}
}

// step advances the clock to its earliest deadline, if it still has one.
func (c *Auto) step() {
	c.mu.Lock()
	if len(c.waiters) == 0 {
		c.mu.Unlock()
		return
	}
	next := slices.MinFunc(c.waiters, func(a, b *waiter) int { return a.deadline.Compare(b.deadline) })
	d := next.deadline.Sub(c.now)
	c.mu.Unlock()
	c.Advance(d)
}

// parkGap is longer than a thread the clock's own wakeup roused takes to
// sleep again, and than the runtime's shortest nap (a 3 µs usleep while
// it steals work) plus the kernel's default 50 µs timer slack.
const parkGap = 100 * time.Microsecond

// parked reports whether every goroutine but the caller is parked, at a
// cost that does not grow with their number. A parked goroutine holds no
// thread, and while a goroutine is runnable and a P idle the runtime
// keeps a thread awake to run it; so the process is parked when every
// other thread sleeps (state S) and the process made no voluntary context
// switch in the parkGap before that read: a thread that woke meanwhile
// and slept again made one.
func parked() bool {
	// Locked, the caller's thread runs no other goroutine while the caller
	// is descheduled (a garbage collector's stack scan): its P goes to a
	// thread the look can see.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	self := othersAsleep("")
	if self == "" {
		return false
	}
	spin(parkGap)
	var before, after syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &before)
	spin(parkGap)
	if othersAsleep(self) != self {
		return false
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &after)
	return after.Nvcsw == before.Nvcsw
}

// spin busies the caller for d without giving up its thread.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// othersAsleep returns the caller's thread ID if every other thread of the
// process sleeps, and "" if one does not or the caller is not on thread
// want (unless want is "").
func othersAsleep(want string) string {
	self, err := os.Readlink("/proc/thread-self") // "<pid>/task/<tid>"
	_, self, _ = strings.Cut(self, "/task/")
	tasks, err2 := os.ReadDir("/proc/self/task")
	if err = errors.Join(err, err2); err != nil {
		panic("vtime: Auto reads thread states from /proc: " + err.Error())
	}
	if want != "" && self != want {
		return ""
	}
	for _, t := range tasks {
		if t.Name() == self {
			continue
		}
		// "<tid> (<comm>) <state> ...": the state follows the last ')'.
		stat, _ := os.ReadFile("/proc/self/task/" + t.Name() + "/stat")
		if i := bytes.LastIndexByte(stat, ')'); i < 0 || i+2 >= len(stat) || stat[i+2] != 'S' {
			return ""
		}
	}
	return self
}
