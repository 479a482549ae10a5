//go:build goexperiment.synctest

package bubble

import (
	"os"
	"runtime/debug"
	"testing/synctest"

	"repro/internal/jsonwarm"
)

// Run calls f in a new bubble and returns once every goroutine in it has
// exited. If every goroutine in the bubble is blocked with no timer left
// to wake one, Run panics, printing every goroutine's stack. What f did
// happens before Run returns: f ends by closing a channel the caller then
// receives from, which the race detector sees, as it does not see
// synctest.Run's own wait. Before the bubble starts, every type on
// jsonwarm's list has its encoder built, so that bubbles side by side
// never wait on each other's build.
func Run(f func()) {
	debug.SetTraceback("all")
	jsonwarm.Warm()
	done := make(chan struct{})
	synctest.Run(func() {
		defer close(done)
		f()
	})
	<-done
}

// Wait returns once every other goroutine in the caller's bubble is
// durably blocked: what a test calls before it reads what its last step
// left behind.
func Wait() { synctest.Wait() }

// Main runs the package's tests: call it from TestMain.
func Main(m interface{ Run() int }) { os.Exit(m.Run()) }
