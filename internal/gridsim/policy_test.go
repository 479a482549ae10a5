package gridsim

import (
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/jsdl"
)

// policySite builds a 4-slot site with the given policy and a staged
// pair of executables: quick (100ms) and slow (5s).
func policySite(t *testing.T, p Policy) *Site {
	t.Helper()
	s := NewSite(SiteConfig{Name: "pol", Nodes: 1, CoresPerNode: 4, Policy: p})
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
	// In a bubble virtual time moves only once every job waits on it, so
	// each step below lands at one known instant and the mid-flight
	// assertions are exact: hog runs 0–5 s, harmless 0–0.1 s, head 5–10 s
	// and harmful 10–10.1 s.
	bubble.Test(t, func(t *testing.T) {
		s := NewSite(SiteConfig{Name: "pol", Nodes: 1, CoresPerNode: 4, Policy: PolicyConservative})
		stage(t, s, "quick.gsh", "compute 100ms\n")
		stage(t, s, "slow.gsh", "compute 5s\n")

		// Hog: 3 slots, walltime 10s. Head: needs 4, reserved for t≈10s.
		hog := submitWide(t, s, "slow.gsh", 3, 10*time.Second)
		head := submitWide(t, s, "slow.gsh", 4, time.Minute)
		// Narrow short job (walltime 2s ≤ reservation at 10s): may backfill.
		harmless := submitWide(t, s, "quick.gsh", 1, 2*time.Second)
		// Narrow long job (walltime 1h > reservation): must NOT backfill.
		harmful := submitWide(t, s, "quick.gsh", 1, time.Hour)

		start := time.Now()
		// advance lets d pass, then waits until every job has acted on it.
		advance := func(d time.Duration) {
			time.Sleep(d)
			bubble.Wait()
		}
		states := func(want ...State) {
			t.Helper()
			for i, j := range []*Job{hog, harmless, head, harmful} {
				if j.State() != want[i] {
					t.Fatalf("at +%v: hog, harmless, head, harmful want %v; %s is %s", time.Since(start), want, j.ID, j.State())
				}
			}
		}
		// Before any time passes: hog and harmless run, head and harmful wait.
		advance(0)
		states(Running, Running, Queued, Queued)
		// harmless completes. Dispatch ran on completion; the harmful
		// candidate must still be held behind the head's reservation
		// despite free slots.
		advance(100 * time.Millisecond)
		states(Running, Succeeded, Queued, Queued)
		advance(4900 * time.Millisecond) // hog completes; head (4 slots) starts
		states(Succeeded, Succeeded, Running, Queued)
		advance(5 * time.Second) // head completes; harmful finally runs
		states(Succeeded, Succeeded, Succeeded, Running)
		advance(time.Second)
		states(Succeeded, Succeeded, Succeeded, Succeeded)

		_, harmfulStart, _ := harmful.Times()
		_, headStart, _ := head.Times()
		if harmfulStart.Before(headStart) {
			t.Fatal("harmful candidate overtook the reserved head")
		}
	})
}

func TestConservativeHeadNotStarved(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Under aggressive backfill a stream of narrow jobs can starve a
		// wide head; conservative must start the head promptly once the
		// first hog finishes.
		s := NewSite(SiteConfig{Name: "st", Nodes: 1, CoresPerNode: 4, Policy: PolicyConservative})
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
	bubble.Test(t, func(t *testing.T) {
		s := NewSite(SiteConfig{Name: "r", Nodes: 1, CoresPerNode: 4, Policy: PolicyConservative})
		s.mu.Lock()
		defer s.mu.Unlock()
		now := time.Now() // and for the whole test: nothing sleeps
		// Empty site: reservation is immediate.
		if got := s.reservationLocked(4); !got.Equal(now) {
			t.Fatalf("empty-site reservation %v", got)
		}
		// Two running jobs: 2 slots back at t=10, 1 at t=20; 1 slot free now.
		s.freeSlots = 1
		s.running["a"] = runInfo{cpus: 2, deadline: now.Add(10 * time.Second)}
		s.running["b"] = runInfo{cpus: 1, deadline: now.Add(20 * time.Second)}
		if got := s.reservationLocked(3); !got.Equal(now.Add(10 * time.Second)) {
			t.Fatalf("reservation for 3 = %v, want t=10", got)
		}
		if got := s.reservationLocked(4); !got.Equal(now.Add(20 * time.Second)) {
			t.Fatalf("reservation for 4 = %v, want t=20", got)
		}
		if got := s.reservationLocked(1); !got.Equal(now) {
			t.Fatalf("reservation for 1 = %v, want now", got)
		}
	})
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
