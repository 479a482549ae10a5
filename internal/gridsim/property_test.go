package gridsim

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bubble"
	"repro/internal/jsdl"
)

// Property: for any random mix of job widths and behaviours (success,
// failure, cancellation), every submitted job reaches exactly one
// terminal state, slots are fully returned, and the completed+failed
// accounting matches the number of submissions.
func TestPropertySchedulerConservation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := func(widths []uint8, behaviours []uint8) bool {
			if len(widths) == 0 {
				return true
			}
			if len(widths) > 24 {
				widths = widths[:24]
			}
			s := NewSite(SiteConfig{Name: "prop", Nodes: 2, CoresPerNode: 4})
			s.Store().Put(owner, "ok.gsh", []byte("compute 100ms\n"))
			s.Store().Put(owner, "bad.gsh", []byte("fail nope\n"))
			s.Store().Put(owner, "slow.gsh", []byte("compute 30s\n"))

			var jobs []*Job
			var toCancel []*Job
			for i, w := range widths {
				width := int(w%8) + 1 // 1..8, site has 8 slots
				beh := 0
				if i < len(behaviours) {
					beh = int(behaviours[i] % 3)
				}
				exe := [3]string{"ok.gsh", "bad.gsh", "slow.gsh"}[beh]
				j, err := s.Submit(jsdl.Description{Owner: owner, Executable: exe, CPUs: width})
				if err != nil {
					return false
				}
				jobs = append(jobs, j)
				if beh == 2 {
					toCancel = append(toCancel, j)
				}
			}
			// Cancel the slow ones so the run terminates promptly.
			var wg sync.WaitGroup
			for _, j := range toCancel {
				wg.Add(1)
				go func(j *Job) {
					defer wg.Done()
					s.Cancel(j.ID)
				}(j)
			}
			wg.Wait()
			deadline := time.After(10 * time.Second)
			for _, j := range jobs {
				select {
				case <-j.Done():
				case <-deadline:
					return false
				}
			}
			stats := s.Stats()
			if stats.FreeSlots != stats.Slots || stats.Queued != 0 || stats.Running != 0 {
				return false
			}
			return stats.Completed+stats.Failed == len(jobs)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: the grid broker never loses a job either — submissions
// across many sites all terminate and per-site accounting sums to the
// total.
func TestPropertyGridConservation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		g, err := New(
			SiteConfig{Name: "a", Nodes: 1, CoresPerNode: 2},
			SiteConfig{Name: "b", Nodes: 2, CoresPerNode: 2},
			SiteConfig{Name: "c", Nodes: 1, CoresPerNode: 4},
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range g.SiteNames() {
			s, _ := g.Site(name)
			s.Store().Put(owner, "j.gsh", []byte("compute 50ms\necho ok\n"))
		}
		const n = 60
		var wg sync.WaitGroup
		failures := make(chan string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				j, err := g.Submit(jsdl.Description{Owner: owner, Executable: "j.gsh"})
				if err != nil {
					failures <- err.Error()
					return
				}
				select {
				case <-j.Done():
					if j.State() != Succeeded {
						failures <- fmt.Sprintf("%s: %s", j.ID, j.State())
					}
				case <-time.After(10 * time.Second):
					failures <- j.ID + " stuck"
				}
			}(i)
		}
		wg.Wait()
		close(failures)
		for f := range failures {
			t.Fatal(f)
		}
		total := 0
		for _, st := range g.Stats() {
			total += st.Completed
			if st.FreeSlots != st.Slots {
				t.Fatalf("site %s leaked slots: %+v", st.Name, st)
			}
		}
		if total != n {
			t.Fatalf("completed %d, want %d", total, n)
		}
	})
}
