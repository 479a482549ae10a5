package bubble

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jsonwarm"
)

func TestMain(m *testing.M) { Main(m) }

// TestTimeIsVirtual: an hour of sleeping costs no host time, and a
// goroutine that only waits on a channel lets the clock jump.
func TestTimeIsVirtual(t *testing.T) {
	Test(t, func(t *testing.T) {
		start := time.Now()
		done := make(chan struct{})
		go func() {
			time.Sleep(time.Hour)
			close(done)
		}()
		<-done
		if got := time.Since(start); got != time.Hour {
			t.Fatalf("slept %v, want exactly 1h", got)
		}
	})
}

// TestCoverageNeedsTheExperiment: a go test -cover of a package on Main,
// built without GOEXPERIMENT=synctest, fails and names the experiment,
// where it would pass with a profile that holds no test's coverage.
func TestCoverageNeedsTheExperiment(t *testing.T) {
	cmd := exec.Command("go", "test", "-count=1", "-cover", "-run=^TestTimeIsVirtual$", ".")
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOEXPERIMENT=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	out, err := cmd.CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("GOEXPERIMENT=synctest")) {
		t.Fatalf("go test -cover without the experiment: %v\n%s", err, out)
	}
}

// TestCleanupRunsInside: a cleanup that stops a goroutine the test body
// started runs before the bubble ends, which waits for that goroutine.
func TestCleanupRunsInside(t *testing.T) {
	stopped := false
	Test(t, func(t *testing.T) {
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Second):
				}
			}
		}()
		t.Cleanup(func() { close(stop); stopped = true })
	})
	if !stopped {
		t.Fatal("the cleanup did not run before Test returned")
	}
}

// TestBusyGoroutineHoldsTheClock: while goroutines burn CPU — one
// spinning, or two handing a token back and forth, so that one of them is
// always runnable though each parks in turn — the clock stands still, and
// a sleeper beside them wakes after the burn at exactly its deadline.
func TestBusyGoroutineHoldsTheClock(t *testing.T) {
	burns := map[string]func(){
		"spin": func() {
			for i := 0; i < 1e7; i++ {
				runtime.KeepAlive(i)
			}
		},
		"ping-pong":    func() { pingPong(false) },
		"ping-pong-gc": func() { pingPong(true) },
	}
	for name, burn := range burns {
		t.Run(name, func(t *testing.T) {
			Run(func() {
				start := time.Now()
				var burned atomic.Bool
				var burnEnd, woke time.Time
				var wokeAfterBurn bool
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					burn()
					burnEnd = time.Now()
					burned.Store(true)
				}()
				go func() {
					defer wg.Done()
					time.Sleep(time.Second)
					woke, wokeAfterBurn = time.Now(), burned.Load()
				}()
				wg.Wait()
				if burnEnd != start {
					t.Errorf("the burn moved the clock by %v", burnEnd.Sub(start))
				}
				if !wokeAfterBurn || woke != start.Add(time.Second) {
					t.Errorf("sleeper woke at +%v (after the burn: %v), want +1s after it", woke.Sub(start), wokeAfterBurn)
				}
			})
		})
	}
}

// pingPong hands a token between two goroutines a thousand times,
// collecting garbage on every round if gc is set.
func pingPong(gc bool) {
	ping, pong := make(chan []byte), make(chan []byte)
	go func() {
		for b := range ping {
			pong <- append(b, 0)
		}
	}()
	for i := 0; i < 1000; i++ {
		ping <- make([]byte, 64<<10)
		<-pong
		if gc {
			runtime.GC()
		}
	}
	close(ping)
}

// TestEqualDeadlinesFireTogether: sleepers due at one instant wake at that
// instant; a later one waits its turn.
func TestEqualDeadlinesFireTogether(t *testing.T) {
	Test(t, func(t *testing.T) {
		start := time.Now()
		woke := make([]time.Duration, 3)
		var wg sync.WaitGroup
		for i, d := range []time.Duration{time.Second, time.Second, 2 * time.Second} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(d)
				woke[i] = time.Since(start)
			}()
		}
		wg.Wait()
		if woke[0] != time.Second || woke[1] != time.Second || woke[2] != 2*time.Second {
			t.Fatalf("woke at %v, want [1s 1s 2s]", woke)
		}
	})
}

// TestSideBySideEncodeFreshTypes: eight bubbles start at once and encode
// types nothing has encoded before, each beside a pending timer the clock
// would jump to if an encode waited on another bubble's build of its
// encoder. The types are on jsonwarm's list, so Run builds them
// first: no encode moves a clock, and every bubble ends.
func TestSideBySideEncodeFreshTypes(t *testing.T) {
	values := freshTypes(256)
	jsonwarm.List(values...)
	start := make(chan struct{}) // made outside the bubbles: waiting on it holds their clocks
	var moved atomic.Int32
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Run(func() {
				defer time.NewTimer(time.Hour).Stop()
				<-start
				began := time.Now()
				for _, v := range values {
					if _, err := json.Marshal(v); err != nil {
						t.Error(err)
					}
				}
				if time.Since(began) != 0 {
					moved.Add(1)
				}
			})
		}()
	}
	close(start)
	wg.Wait()
	if n := moved.Load(); n != 0 {
		t.Fatalf("in %d of 8 bubbles an encode waited for another bubble's", n)
	}
}

// freshCount keeps the types of every freshTypes call apart.
var freshCount atomic.Int64

// freshTypes returns zero values of n struct types made for the call,
// each with fields of several kinds, so that building its encoder takes a
// while.
func freshTypes(n int) []any {
	kinds := []reflect.Type{reflect.TypeOf(""), reflect.TypeOf([]int(nil)), reflect.TypeOf(map[string]float64(nil)), reflect.TypeOf(struct{ A, B string }{})}
	values := make([]any, n)
	for i := range values {
		id := freshCount.Add(1)
		fields := make([]reflect.StructField, 32)
		for j := range fields {
			fields[j] = reflect.StructField{Name: fmt.Sprintf("F%d_%d", id, j), Type: kinds[j%len(kinds)]}
		}
		values[i] = reflect.New(reflect.StructOf(fields)).Elem().Interface()
	}
	return values
}
