package gridsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/jsdl"
	"repro/internal/vtime"
)

// policySite builds a 4-slot site with the given policy and a staged
// pair of executables: quick (100ms) and slow (5s).
func policySite(t *testing.T, p Policy) *Site {
	t.Helper()
	clk := vtime.Real{}
	s := NewSite(SiteConfig{Name: "pol", Nodes: 1, CoresPerNode: 4, Policy: p}, clk)
	stage(t, s, "quick.gsh", "compute 100ms\n")
	stage(t, s, "slow.gsh", "compute 5s\n")
	return s
}

func submitWide(t *testing.T, s *Site, exe string, cpus int, wallTime time.Duration) *Job {
	t.Helper()
	j, err := s.Submit(jsdl.Description{
		Owner: owner, Executable: exe, CPUs: cpus, WallTime: wallTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestPolicyStrings(t *testing.T) {
	if PolicyAggressive.String() != "aggressive" || PolicyFCFS.String() != "fcfs" ||
		PolicyConservative.String() != "conservative" || Policy(9).String() != "unknown" {
		t.Fatal("policy names wrong")
	}
}

func TestFCFSHeadBlocksQueue(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		s := policySite(t, PolicyFCFS)
		// Occupy 3 of 4 slots for a while.
		hog := submitWide(t, s, "slow.gsh", 3, time.Minute)
		// Head needs 2: cannot start. A later 1-wide job must NOT overtake
		// under strict FCFS.
		head := submitWide(t, s, "slow.gsh", 2, time.Minute)
		narrow := submitWide(t, s, "quick.gsh", 1, time.Minute)
		waitJob(t, hog)
		waitJob(t, head)
		waitJob(t, narrow)
		_, narrowStart, _ := narrow.Times()
		_, headStart, _ := head.Times()
		if narrowStart.Before(headStart) {
			t.Fatalf("FCFS violated: narrow started %v before head %v", narrowStart, headStart)
		}
	})
}

func TestAggressiveBackfillOvertakes(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		s := policySite(t, PolicyAggressive)
		hog := submitWide(t, s, "slow.gsh", 3, time.Minute)
		head := submitWide(t, s, "slow.gsh", 2, time.Minute)
		narrow := submitWide(t, s, "quick.gsh", 1, time.Minute)
		waitJob(t, narrow)
		if head.State() == Succeeded {
			t.Fatal("head finished before the backfilled narrow job")
		}
		_, narrowStart, _ := narrow.Times()
		if narrowStart.IsZero() {
			t.Fatal("narrow never started")
		}
		waitJob(t, hog)
		waitJob(t, head)
	})
}

func TestConservativeBackfillAllowsHarmlessJobs(t *testing.T) {
	// Deterministic version on a manual clock: virtual time advances only
	// when the test says so, making the mid-flight assertions exact.
	clk := vtime.NewManual(time.Unix(0, 0))
	s := NewSite(SiteConfig{Name: "pol", Nodes: 1, CoresPerNode: 4, Policy: PolicyConservative}, clk)
	stage(t, s, "quick.gsh", "compute 100ms\n")
	stage(t, s, "slow.gsh", "compute 5s\n")

	// Hog: 3 slots, walltime 10s. Head: needs 4, reserved for t≈10s.
	hog := submitWide(t, s, "slow.gsh", 3, 10*time.Second)
	head := submitWide(t, s, "slow.gsh", 4, time.Minute)
	// Narrow short job (walltime 2s ≤ reservation at 10s): may backfill.
	harmless := submitWide(t, s, "quick.gsh", 1, 2*time.Second)
	// Narrow long job (walltime 1h > reservation): must NOT backfill.
	harmful := submitWide(t, s, "quick.gsh", 1, time.Hour)

	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("stuck waiting for %s", what)
			}
		}
	}
	waitState := func(j *Job, want State) {
		t.Helper()
		waitFor(j.ID+" "+want.String(), func() bool { return j.State() == want })
	}
	// advance moves the clock once n waiters are on it — each running
	// job's compute step and walltime, and the walltimes of jobs already
	// over — so no job is yet to sleep on what the step should wake.
	advance := func(n int, d time.Duration) {
		t.Helper()
		waitFor(fmt.Sprint(n, " waiters"), func() bool { return clk.Pending() == n })
		clk.Advance(d)
	}
	// Before any time passes: hog and harmless run, head and harmful wait.
	waitState(hog, Running)
	waitState(harmless, Running)
	if head.State() != Queued || harmful.State() != Queued {
		t.Fatalf("states: head %s, harmful %s", head.State(), harmful.State())
	}

	advance(4, 100*time.Millisecond) // harmless completes
	waitState(harmless, Succeeded)
	// Dispatch ran on completion; the harmful candidate must still be
	// held behind the head's reservation despite free slots.
	if st := harmful.State(); st != Queued {
		t.Fatalf("harmful candidate state %s, want QUEUED", st)
	}

	advance(3, 5*time.Second) // hog completes; head (4 slots) starts
	waitState(hog, Succeeded)
	waitState(head, Running)
	advance(3, 5*time.Second) // head completes; harmful finally runs
	waitState(head, Succeeded)
	waitState(harmful, Running)
	advance(3, time.Second)
	waitState(harmful, Succeeded)

	_, harmfulStart, _ := harmful.Times()
	_, headStart, _ := head.Times()
	if harmfulStart.Before(headStart) {
		t.Fatal("harmful candidate overtook the reserved head")
	}
}

func TestConservativeHeadNotStarved(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Under aggressive backfill a stream of narrow jobs can starve a
		// wide head; conservative must start the head promptly once the
		// first hog finishes.
		clk := vtime.Real{}
		s := NewSite(SiteConfig{Name: "st", Nodes: 1, CoresPerNode: 4, Policy: PolicyConservative}, clk)
		stage(t, s, "medium.gsh", "compute 2s\n")
		hog := submitWide(t, s, "medium.gsh", 4, 3*time.Second)
		head := submitWide(t, s, "medium.gsh", 4, time.Minute)
		// A stream of narrow jobs with walltimes longer than the reservation.
		var narrows []*Job
		for i := 0; i < 6; i++ {
			narrows = append(narrows, submitWide(t, s, "medium.gsh", 1, time.Hour))
		}
		waitJob(t, hog)
		waitJob(t, head)
		_, headStart, _ := head.Times()
		for _, n := range narrows {
			waitJob(t, n)
			_, ns, _ := n.Times()
			if ns.Before(headStart) {
				t.Fatalf("narrow job started %v before reserved head %v", ns, headStart)
			}
		}
	})
}

func TestReservationComputation(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	s := NewSite(SiteConfig{Name: "r", Nodes: 1, CoresPerNode: 4, Policy: PolicyConservative}, clk)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Empty site: reservation is immediate.
	if got := s.reservationLocked(4); !got.Equal(clk.Now()) {
		t.Fatalf("empty-site reservation %v", got)
	}
	// Two running jobs: 2 slots back at t=10, 1 at t=20; 1 slot free now.
	s.freeSlots = 1
	s.running["a"] = runInfo{cpus: 2, deadline: time.Unix(10, 0)}
	s.running["b"] = runInfo{cpus: 1, deadline: time.Unix(20, 0)}
	if got := s.reservationLocked(3); !got.Equal(time.Unix(10, 0)) {
		t.Fatalf("reservation for 3 = %v, want t=10", got)
	}
	if got := s.reservationLocked(4); !got.Equal(time.Unix(20, 0)) {
		t.Fatalf("reservation for 4 = %v, want t=20", got)
	}
	if got := s.reservationLocked(1); !got.Equal(clk.Now()) {
		t.Fatalf("reservation for 1 = %v, want now", got)
	}
}

func TestAllPoliciesConserveJobs(t *testing.T) {
	bubble.Run(func() {
		for _, p := range []Policy{PolicyAggressive, PolicyFCFS, PolicyConservative} {
			t.Run(p.String(), func(t *testing.T) {
				s := policySite(t, p)
				var jobs []*Job
				for i := 0; i < 16; i++ {
					cpus := 1 + i%3
					jobs = append(jobs, submitWide(t, s, "quick.gsh", cpus, time.Hour))
				}
				for _, j := range jobs {
					waitJob(t, j)
					if j.State() != Succeeded {
						t.Fatalf("%s: job %s state %s", p, j.ID, j.State())
					}
				}
				stats := s.Stats()
				if stats.Completed != 16 || stats.FreeSlots != 4 {
					t.Fatalf("%s: stats %+v", p, stats)
				}
			})
		}
	})
}
