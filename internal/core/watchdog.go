package core

import (
	"time"

	"repro/internal/vtime"
)

// Watchdog fires a callback once if it is not stopped before the timeout
// elapses on the given clock — the reproduction of the paper's "watchdog
// class, that is used to react correctly in some situations where a
// problem may occur (for example when a process takes too long to
// complete)". It is a timer on that clock, never a parked goroutine.
type Watchdog struct {
	timer vtime.Timer
}

// NewWatchdog arms a watchdog. onTimeout runs at most once, from the
// clock's timer.
func NewWatchdog(clock vtime.Clock, timeout time.Duration, onTimeout func()) *Watchdog {
	return &Watchdog{timer: clock.AfterFunc(timeout, onTimeout)}
}

// Stop disarms the watchdog; safe to call multiple times and after fire.
func (w *Watchdog) Stop() { w.timer.Stop() }
