// Package bubble runs a simulation in a testing/synctest bubble. Inside
// one, the time package's clock is virtual: it stands still while any
// goroutine the bubble started can run, and jumps to the earliest
// deadline once every one of them is durably blocked — on a channel, a
// select, a sync.Cond or a sleep. The rigs, the test fixtures and the
// examples run the full protocol stack, which waits and timestamps with
// the time package alone, over in-process pipes (netsim.Net), whose waits
// are all channel operations, so a 60-second transfer takes as much host
// time as its bytes cost to move, and no host, with or without the race
// detector, can stretch or shrink a modelled duration. Run returns only once every goroutine the bubble
// started has exited, so a rig that leaks one fails.
//
// go1.24 compiles testing/synctest only under GOEXPERIMENT=synctest.
// Built without it, Run stops a program with a message that says so, and
// Main runs the calling package's tests again in a go test that has it —
// or, asked for coverage it could not pass on, fails saying so.
package bubble

// Test runs f as a subtest of t, named "bubble", in a bubble of its own:
// the cleanups f registers run inside it too, before Run returns. T is
// *testing.T.
func Test[T interface{ Run(string, func(T)) bool }](t T, f func(T)) {
	Run(func() { t.Run("bubble", f) })
}
