// Package vtime provides the three clocks used throughout the
// reproduction: Real, the time package's, which production runs on;
// Manual, which a test steps itself; and Auto, an event clock that steps
// itself, which everything simulated runs on.
//
// All components that wait, time out, or timestamp events take a Clock
// instead of calling the time package directly. The experiments, the
// test fixtures and the examples run the full protocol stack on an Auto
// clock: virtual time stands still while any goroutine can run and jumps
// to the next deadline once none can, as in a discrete-event simulator.
// A 60-second transfer then takes as much host time as its bytes cost to
// move, and no host — however slow, with or without the race detector —
// can stretch or shrink a modelled duration.
package vtime

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
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
	look       look // the run goroutine's alone
}

// NewAuto returns a running Auto clock at the Unix epoch, so a timeline
// starts at t=0. Stop it when done with it. The clock's look needs a
// second P beside its own, so NewAuto raises GOMAXPROCS to 2 if it is 1,
// and the clock does not step while something lowers it again (as
// testing.AllocsPerRun does while it counts).
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
// real time: 1 µs after a step or a first parked look, doubling up to
// 1 ms while looks find work going on. A sleep, unlike runtime.Gosched,
// frees the clock's thread to run what waits in its queues, and the timer
// that ends it wakes a thread for what waits in the runtime's global
// queue. The pause is short because a host may round a sleep up a long
// way: on some, 10 µs sleeps take ~300 µs and 1 µs ones ~30 µs.
func (c *Auto) run() {
	defer close(c.done)
	backoff, seen := time.Duration(0), -1
	pause := time.NewTimer(0)
	defer pause.Stop()
	for {
		select {
		case <-pause.C:
		case <-c.stop:
			return
		}
		c.mu.Lock()
		changes, pending := c.changes, len(c.waiters)
		c.mu.Unlock()
		switch {
		case pending == 0 || runtime.GOMAXPROCS(0) < 2 || !c.look.parked():
			seen, backoff = -1, min(max(2*backoff, time.Microsecond), time.Millisecond)
		case changes != seen:
			seen, backoff = changes, time.Microsecond
		default:
			c.step()
			seen, backoff = -1, time.Microsecond
		}
		pause.Reset(backoff)
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

// look is what a look at the process's threads reads /proc into: buffers
// the clock reuses, so that a look allocates nothing.
type look struct {
	dir  [8 << 10]byte // entries of /proc/self/task
	self [20]byte      // the caller's thread ID, in decimal
	path [32]byte      // "<tid>/stat\x00"
	stat [128]byte     // the head of one thread's stat line
}

// taskDir is /proc/self/task as openat takes it.
var taskDir = []byte("/proc/self/task\x00")

// parked reports whether every goroutine but the caller is parked, at a
// cost that does not grow with their number. A parked goroutine holds no
// thread, and while a goroutine is runnable and a P idle the runtime
// keeps a thread awake to run it; so the process is parked when every
// other thread sleeps (state S) and the process made no voluntary context
// switch in the parkGap before that read: a thread that woke meanwhile
// and slept again made one.
func (l *look) parked() bool {
	// Locked, the caller's thread runs no other goroutine while the caller
	// is descheduled (a garbage collector's stack scan): its P goes to a
	// thread the look can see.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// A thread that just handed work on may take a moment to sleep: look
	// again for up to a parkGap before giving up.
	asleep := l.othersAsleep()
	for t0 := time.Now(); !asleep && time.Since(t0) < parkGap; {
		asleep = l.othersAsleep()
	}
	if !asleep {
		return false
	}
	spin(parkGap)
	var before, after syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &before)
	spin(parkGap)
	if !l.othersAsleep() {
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

// othersAsleep reports whether every thread of the process but the
// caller's sleeps.
func (l *look) othersAsleep() bool {
	self := strconv.AppendInt(l.self[:0], int64(syscall.Gettid()), 10)
	dir, errno := openat(_AT_FDCWD, taskDir, syscall.O_DIRECTORY)
	if errno != 0 {
		panic("vtime: Auto reads thread states from /proc: " + errno.Error())
	}
	defer syscall.Close(dir)
	for {
		n, err := syscall.ReadDirent(dir, l.dir[:])
		if err != nil {
			panic("vtime: Auto reads thread states from /proc: " + err.Error())
		}
		if n <= 0 {
			return true
		}
		// linux_dirent64: inode (8 bytes), offset (8), record length (2),
		// type (1), then the NUL-terminated name: ".", "..", or a thread ID.
		for rec := l.dir[:n]; len(rec) > 0; {
			size := binary.NativeEndian.Uint16(rec[16:])
			name := rec[19:size]
			name, rec = name[:bytes.IndexByte(name, 0)], rec[size:]
			if name[0] != '.' && !bytes.Equal(name, self) && !l.asleep(dir, name) {
				return false
			}
		}
	}
}

// asleep reports whether the thread whose /proc/self/task entry is name
// sleeps (state S). One that has exited since the listing does not.
func (l *look) asleep(dir int, name []byte) bool {
	path := append(append(append(l.path[:0], name...), "/stat"...), 0)
	fd, errno := openat(dir, path, 0)
	if errno != 0 {
		return false
	}
	n, _ := syscall.Read(fd, l.stat[:])
	syscall.Close(fd)
	// "<tid> (<comm>) <state> ...": the state follows the last ')', and a
	// comm is at most 15 bytes, so the head holds it.
	stat := l.stat[:max(n, 0)]
	i := bytes.LastIndexByte(stat, ')')
	return i >= 0 && i+2 < len(stat) && stat[i+2] == 'S'
}

// _AT_FDCWD makes openat resolve a path as open does.
const _AT_FDCWD = -0x64

// openat opens the NUL-terminated path, read-only, relative to dirfd. It
// is syscall.Openat without the copy of path that a Go string costs.
func openat(dirfd int, path []byte, flags int) (int, syscall.Errno) {
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd), uintptr(unsafe.Pointer(&path[0])),
		uintptr(flags|syscall.O_RDONLY|syscall.O_CLOEXEC), 0, 0, 0)
	return int(fd), errno
}
