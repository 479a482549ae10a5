package vtime

import (
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
	for _, tc := range []struct {
		name  string
		clock Clock
		d     time.Duration
		pass  func(time.Duration) // lets that much of the clock's time go by
	}{
		{"real", Real{}, time.Millisecond, func(time.Duration) {}},
		{"manual", manual, time.Second, manual.Advance},
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
