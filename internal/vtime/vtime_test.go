package vtime

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealNowAdvances(t *testing.T) {
	c := Real{}
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("real clock did not advance")
	}
}

func TestAutoEpochIsUnixZero(t *testing.T) {
	c := NewAuto()
	defer c.Stop()
	if got := c.Now(); got != time.Unix(0, 0).UTC() {
		t.Fatalf("a fresh Auto clock reads %v, want the Unix epoch", got)
	}
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		c.Sleep(10 * time.Second)
		close(done)
	}()
	// Wait until the sleeper registers.
	for c.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("sleep returned before advance")
	default:
	}
	c.Advance(10 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleep did not return after sufficient advance")
	}
}

func TestManualPartialAdvanceKeepsWaiting(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	ch := c.After(10 * time.Second)
	c.Advance(4 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	c.Advance(6 * time.Second)
	select {
	case at := <-ch:
		if got := at.Sub(time.Unix(0, 0)); got != 10*time.Second {
			t.Fatalf("fired at +%v, want +10s", got)
		}
	case <-time.After(time.Second):
		t.Fatal("never fired")
	}
}

func TestManualAfterZeroFiresImmediately(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) should be immediately ready")
	}
}

func TestManualManySleepersReleasedTogether(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	const n = 32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * time.Second
		go func() {
			defer wg.Done()
			c.Sleep(d)
		}()
	}
	for c.Pending() < n {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Duration(n) * time.Second)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%d sleepers still pending after full advance", c.Pending())
	}
}

// TestAfterFuncContract: on every clock an AfterFunc call is made once;
// Stop before the deadline prevents it and reports true, and Stop after it
// was made reports false.
func TestAfterFuncContract(t *testing.T) {
	manual := NewManual(time.Unix(0, 0))
	auto := NewAuto()
	defer auto.Stop()
	for _, tc := range []struct {
		name  string
		clock Clock
		d     time.Duration
		pass  func(time.Duration) // lets that much of the clock's time go by
	}{
		{"real", Real{}, time.Millisecond, func(time.Duration) {}},
		{"manual", manual, time.Second, manual.Advance},
		{"auto", auto, time.Second, func(time.Duration) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls, stoppedCalls atomic.Int32
			made := make(chan struct{}, 1)
			tm := tc.clock.AfterFunc(tc.d, func() { calls.Add(1); made <- struct{}{} })
			stopped := tc.clock.AfterFunc(tc.d, func() { stoppedCalls.Add(1) })
			if !stopped.Stop() {
				t.Fatal("Stop before the deadline reported false")
			}
			if stopped.Stop() {
				t.Fatal("a second Stop reported true")
			}
			tc.pass(tc.d)
			select {
			case <-made:
			case <-time.After(5 * time.Second):
				t.Fatal("AfterFunc was never called")
			}
			if tm.Stop() {
				t.Fatal("Stop after the call reported true")
			}
			// Three more deadlines go by: nothing is called again.
			sentinel := make(chan struct{})
			tc.clock.AfterFunc(3*tc.d, func() { close(sentinel) })
			tc.pass(3 * tc.d)
			<-sentinel
			time.Sleep(10 * time.Millisecond)
			if calls.Load() != 1 || stoppedCalls.Load() != 0 {
				t.Fatalf("calls %d, of the stopped one %d; want 1 and 0", calls.Load(), stoppedCalls.Load())
			}
		})
	}
}

// TestManualAfterFunc: Pending counts an AfterFunc call not yet made, the
// Advance that reaches its deadline makes it before returning, a stopped one
// leaves the clock, and d <= 0 makes it at once.
func TestManualAfterFunc(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	calls := 0
	c.AfterFunc(0, func() { calls++ })
	c.AfterFunc(-time.Second, func() { calls++ })
	if calls != 2 || c.Pending() != 0 {
		t.Fatalf("d <= 0: %d calls, %d pending; want 2 and 0", calls, c.Pending())
	}
	c.AfterFunc(time.Second, func() { calls++ })
	stopped := c.AfterFunc(time.Second, func() { calls++ })
	if c.Pending() != 2 {
		t.Fatalf("%d pending, want 2", c.Pending())
	}
	stopped.Stop()
	if c.Pending() != 1 {
		t.Fatalf("a stopped call still pending: %d", c.Pending())
	}
	c.Advance(time.Second - 1)
	if calls != 2 || c.Pending() != 1 {
		t.Fatalf("before the deadline: %d calls, %d pending", calls, c.Pending())
	}
	c.Advance(1)
	if calls != 3 || c.Pending() != 0 {
		t.Fatalf("at the deadline: %d calls, %d pending; want 3 and 0", calls, c.Pending())
	}
}

// TestAutoAfterLeavesNoGoroutine: a receiver that stops listening — a
// tenant queue timeout for an admission already granted, a job's walltime
// after the job ended — costs a waiter on the clock, not a goroutine that
// sleeps out the deadline.
func TestAutoAfterLeavesNoGoroutine(t *testing.T) {
	c := NewAuto()
	defer c.Stop()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		c.After(time.Hour)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("1000 pending After calls: %d goroutines, %d before", after, before)
	}
}

// TestAutoBusyGoroutineHoldsTheClock: while goroutines burn 100 ms of
// real CPU — one spinning, or two handing a token back and forth, so
// that one of them is always runnable though each parks in turn — the
// clock stands still, and a sleeper beside them wakes after the burn at
// exactly its deadline.
func TestAutoBusyGoroutineHoldsTheClock(t *testing.T) {
	burns := map[string]func(){
		"spin": func() {
			for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
			}
		},
		"ping-pong": func() { pingPong(false) },
		// The collector's stack scans deschedule the clock's goroutine
		// mid-look; its thread must not run the pair meanwhile unseen.
		"ping-pong-gc": func() { pingPong(true) },
	}
	for name, burn := range burns {
		t.Run(name, func(t *testing.T) {
			c := NewAuto()
			defer c.Stop()
			start := c.Now()
			var burned atomic.Bool
			var burnEnd, woke time.Time
			var wokeAfterBurn bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				burn()
				burnEnd = c.Now()
				burned.Store(true)
			}()
			go func() {
				defer wg.Done()
				c.Sleep(time.Second)
				woke, wokeAfterBurn = c.Now(), burned.Load()
			}()
			wg.Wait()
			if burnEnd != start {
				t.Fatalf("100 ms of CPU moved the clock by %v", burnEnd.Sub(start))
			}
			if !wokeAfterBurn || woke != start.Add(time.Second) {
				t.Fatalf("sleeper woke at +%v (after the burn: %v), want +1s after it", woke.Sub(start), wokeAfterBurn)
			}
		})
	}
}

// pingPong hands a token between two goroutines for 100 ms of real time,
// collecting garbage on every round if gc is set.
func pingPong(gc bool) {
	ping, pong := make(chan []byte), make(chan []byte)
	go func() {
		for b := range ping {
			pong <- append(b, 0)
		}
	}()
	for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
		ping <- make([]byte, 64<<10)
		<-pong
		if gc {
			runtime.GC()
		}
	}
	close(ping)
}

// TestAutoParkedGoroutinesDoNotHoldTheClock: goroutines blocked for good on
// a channel, a lock and a pipe read leave the clock free to advance.
func TestAutoParkedGoroutinesDoNotHoldTheClock(t *testing.T) {
	c := NewAuto()
	defer c.Stop()
	never := make(chan struct{})
	var mu sync.Mutex
	mu.Lock()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var blocked sync.WaitGroup
	blocked.Add(3)
	go func() { blocked.Done(); <-never }()
	go func() { blocked.Done(); mu.Lock(); mu.Unlock() }()
	go func() { blocked.Done(); a.Read(make([]byte, 1)) }()
	blocked.Wait()
	start := c.Now()
	c.Sleep(time.Minute)
	if got := c.Now().Sub(start); got != time.Minute {
		t.Fatalf("slept %v, want 1m", got)
	}
	close(never)
	mu.Unlock()
}

// TestAutoEqualDeadlinesFireTogether: sleepers due at one instant are
// released by one step, at that instant; a later one waits its turn.
func TestAutoEqualDeadlinesFireTogether(t *testing.T) {
	c := NewAuto()
	defer c.Stop()
	start := c.Now()
	woke := make([]time.Duration, 3)
	var wg sync.WaitGroup
	for i, d := range []time.Duration{time.Second, time.Second, 2 * time.Second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(d)
			woke[i] = c.Now().Sub(start)
		}()
	}
	wg.Wait()
	if woke[0] != time.Second || woke[1] != time.Second || woke[2] != 2*time.Second {
		t.Fatalf("woke at %v, want [1s 1s 2s]", woke)
	}
}

// TestAutoStopLeavesNoGoroutine: once Stop returns the clock's stepping
// goroutine is gone.
func TestAutoStopLeavesNoGoroutine(t *testing.T) {
	c := NewAuto()
	c.Sleep(time.Second)
	c.Stop()
	buf := make([]byte, 1<<20)
	for i := 0; ; i++ {
		if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "vtime.(*Auto).run") {
			return
		}
		if i == 1000 {
			t.Fatal("the clock's goroutine outlived Stop")
		}
		runtime.Gosched()
	}
}

// TestLookAllocatesNothing: the clock looks at the process's threads
// hundreds of times a millisecond of virtual work, and allocation guards
// elsewhere read process-wide MemStats while it does: a look allocates
// no object.
func TestLookAllocatesNothing(t *testing.T) {
	var l look
	l.parked() // any first-use cost of the runtime's own
	if allocs := testing.AllocsPerRun(20, func() { l.parked() }); allocs != 0 {
		t.Fatalf("a look allocates %v objects, want 0", allocs)
	}
}

// TestAutoStandsStillOnOneP: with one P the look cannot see runnable work
// (testing.AllocsPerRun counts at GOMAXPROCS 1 beside a fixture's clock),
// so the clock waits for a second P before it steps.
func TestAutoStandsStillOnOneP(t *testing.T) {
	c := NewAuto()
	defer c.Stop()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	woke := c.After(time.Second)
	time.Sleep(50 * time.Millisecond)
	if c.Now() != time.Unix(0, 0).UTC() {
		t.Fatalf("the clock stepped to %v on one P", c.Now())
	}
	runtime.GOMAXPROCS(2)
	<-woke
}
