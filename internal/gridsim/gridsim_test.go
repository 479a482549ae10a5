package gridsim

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jsdl"
	"repro/internal/vtime"
)

const owner = "/O=Repro/CN=alice"

// autoClock is an event clock that the test's cleanup stops.
func autoClock(t testing.TB) *vtime.Auto {
	c := vtime.NewAuto()
	t.Cleanup(c.Stop)
	return c
}

func testSite(t *testing.T, slots int) *Site {
	t.Helper()
	clk := autoClock(t)
	return NewSite(SiteConfig{Name: "test", Nodes: 1, CoresPerNode: slots}, clk)
}

func stage(t *testing.T, s *Site, name, src string) {
	t.Helper()
	if err := s.Store().Put(owner, name, []byte(src)); err != nil {
		t.Fatal(err)
	}
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.State())
	}
}

func submit(t *testing.T, s *Site, exe string, args map[string]string) *Job {
	t.Helper()
	j, err := s.Submit(jsdl.Description{Owner: owner, Executable: exe, Arguments: args})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJobRunsToCompletion(t *testing.T) {
	s := testSite(t, 4)
	stage(t, s, "hello.gsh", "echo hello ${who}\ncompute 2s\nwrite out.dat 128\n")
	j := submit(t, s, "hello.gsh", map[string]string{"who": "grid"})
	waitJob(t, j)
	if j.State() != Succeeded {
		t.Fatalf("state %s: %s", j.State(), j.ExitMessage())
	}
	if got := j.Stdout(); got != "hello grid\n" {
		t.Fatalf("stdout %q", got)
	}
	if len(j.OutputFile("out.dat")) != 128 {
		t.Fatal("output artifact missing")
	}
	if names := j.OutputNames(); len(names) != 1 || names[0] != "out.dat" {
		t.Fatalf("outputs %v", names)
	}
	sub, start, end := j.Times()
	if sub.IsZero() || start.Before(sub) || end.Before(start) {
		t.Fatalf("times out of order: %v %v %v", sub, start, end)
	}
}

func TestJobFailure(t *testing.T) {
	s := testSite(t, 2)
	stage(t, s, "bad.gsh", "echo starting\nfail kaboom\n")
	j := submit(t, s, "bad.gsh", nil)
	waitJob(t, j)
	if j.State() != Failed || !strings.Contains(j.ExitMessage(), "kaboom") {
		t.Fatalf("state %s msg %q", j.State(), j.ExitMessage())
	}
}

func TestJobSyntaxErrorFails(t *testing.T) {
	s := testSite(t, 2)
	stage(t, s, "junk.gsh", "frobnicate the grid\n")
	j := submit(t, s, "junk.gsh", nil)
	waitJob(t, j)
	if j.State() != Failed || !strings.Contains(j.ExitMessage(), "rejected") {
		t.Fatalf("state %s msg %q", j.State(), j.ExitMessage())
	}
}

func TestSubmitRequiresStagedExecutable(t *testing.T) {
	s := testSite(t, 2)
	_, err := s.Submit(jsdl.Description{Owner: owner, Executable: "ghost.gsh"})
	if !errors.Is(err, ErrNotStaged) {
		t.Fatalf("got %v", err)
	}
}

func TestSubmitRequiresStageInFiles(t *testing.T) {
	s := testSite(t, 2)
	stage(t, s, "e.gsh", "echo x\n")
	_, err := s.Submit(jsdl.Description{
		Owner: owner, Executable: "e.gsh", StageIn: []string{"missing.dat"},
	})
	if !errors.Is(err, ErrNotStaged) {
		t.Fatalf("got %v", err)
	}
}

func TestSubmitRejectsOversizedJob(t *testing.T) {
	s := testSite(t, 2)
	stage(t, s, "e.gsh", "echo x\n")
	_, err := s.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh", CPUs: 3})
	if !errors.Is(err, ErrTooManyCPUs) {
		t.Fatalf("got %v", err)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	s := testSite(t, 1)
	stage(t, s, "slow.gsh", "compute 3s\n")
	j1 := submit(t, s, "slow.gsh", nil)
	j2 := submit(t, s, "slow.gsh", nil)
	// j2 must wait for j1's slot.
	waitJob(t, j1)
	waitJob(t, j2)
	_, start1, end1 := j1.Times()
	_, start2, _ := j2.Times()
	_ = start1
	if start2.Before(end1) {
		t.Fatalf("j2 started %v before j1 ended %v on a 1-slot site", start2, end1)
	}
}

func TestBackfillNarrowJobOvertakesWideJob(t *testing.T) {
	s := testSite(t, 4)
	stage(t, s, "slow.gsh", "compute 5s\n")
	stage(t, s, "quick.gsh", "compute 100ms\n")
	// Occupy 3 of 4 slots.
	hog, err := s.Submit(jsdl.Description{Owner: owner, Executable: "slow.gsh", CPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Wide job cannot start (needs 2, only 1 free).
	wide, err := s.Submit(jsdl.Description{Owner: owner, Executable: "slow.gsh", CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Narrow job fits the remaining slot: backfill should start it now.
	narrow := submit(t, s, "quick.gsh", nil)
	waitJob(t, narrow)
	if wide.State() == Succeeded {
		t.Fatal("wide job finished before the narrow backfill candidate")
	}
	waitJob(t, hog)
	waitJob(t, wide)
	if wide.State() != Succeeded {
		t.Fatalf("wide job %s: %s", wide.State(), wide.ExitMessage())
	}
}

func TestNoOversubscription(t *testing.T) {
	const slots = 3
	s := testSite(t, slots)
	stage(t, s, "c.gsh", "compute 500ms\n")
	var jobs []*Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, submit(t, s, "c.gsh", nil))
	}
	// Sample running counts every virtual 100 ms while draining the queue:
	// four waves of 500 ms.
	for start := s.clock.Now(); ; s.clock.Sleep(100 * time.Millisecond) {
		stats := s.Stats()
		if stats.FreeSlots < 0 || stats.Running > slots {
			t.Fatalf("oversubscribed: %+v", stats)
		}
		done := 0
		for _, j := range jobs {
			if j.State().Terminal() {
				done++
			}
		}
		if done == len(jobs) {
			break
		}
		if s.clock.Now().Sub(start) > time.Minute {
			t.Fatalf("jobs stuck: %d/%d done", done, len(jobs))
		}
	}
	stats := s.Stats()
	if stats.Completed != 12 || stats.FreeSlots != slots {
		t.Fatalf("final stats %+v", stats)
	}
	if stats.CPUSeconds < 5 { // 12 jobs x 0.5s, CPUFactor 1
		t.Fatalf("cpu accounting %v", stats.CPUSeconds)
	}
}

func TestWalltimeEnforced(t *testing.T) {
	clk := autoClock(t)
	s := NewSite(SiteConfig{Name: "t", Nodes: 1, CoresPerNode: 1}, clk)
	stage(t, s, "endless.gsh", "compute 1h\n")
	j, err := s.Submit(jsdl.Description{
		Owner: owner, Executable: "endless.gsh", WallTime: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != TimedOut {
		t.Fatalf("state %s", j.State())
	}
	if s.Stats().FreeSlots != 1 {
		t.Fatal("slot leaked after timeout")
	}
}

// TestFinishedProgramBeatsExpiredWalltime: a program that has returned
// when its limit is seen to expire succeeded, every time — the verdict
// is not left to which ready channel a select happens to pick.
func TestFinishedProgramBeatsExpiredWalltime(t *testing.T) {
	for i := 0; i < 200; i++ {
		result := make(chan error, 1)
		expired := make(chan time.Time, 1)
		result <- nil
		expired <- time.Time{}
		if st, msg := awaitProgram(result, expired, nil); st != Succeeded {
			t.Fatalf("round %d: finished program judged %s (%s)", i, st, msg)
		}
	}
	expired := make(chan time.Time, 1)
	expired <- time.Time{}
	if st, _ := awaitProgram(make(chan error), expired, nil); st != TimedOut {
		t.Fatalf("unfinished program past its limit judged %s", st)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := testSite(t, 1)
	stage(t, s, "slow.gsh", "compute 10s\n")
	running := submit(t, s, "slow.gsh", nil)
	queued := submit(t, s, "slow.gsh", nil)
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, queued)
	if queued.State() != Cancelled {
		t.Fatalf("state %s", queued.State())
	}
	waitJob(t, running)
	if running.State() != Succeeded {
		t.Fatalf("running job %s", running.State())
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := testSite(t, 1)
	stage(t, s, "ticker.gsh", "emit 200ms 1000 tick\n")
	j := submit(t, s, "ticker.gsh", nil)
	// Let it start.
	for j.State() == Queued {
		s.clock.Sleep(time.Millisecond)
	}
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != Cancelled {
		t.Fatalf("state %s", j.State())
	}
	if s.Stats().FreeSlots != 1 {
		t.Fatal("slot leaked after cancel")
	}
}

func TestCancelUnknownJob(t *testing.T) {
	s := testSite(t, 1)
	if err := s.Cancel("test:job-999999"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("got %v", err)
	}
}

func TestDrainRejectsSubmissions(t *testing.T) {
	s := testSite(t, 1)
	stage(t, s, "e.gsh", "echo x\n")
	s.Drain()
	if _, err := s.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Queued: "QUEUED", Running: "RUNNING", Succeeded: "DONE",
		Failed: "FAILED", Cancelled: "CANCELLED", TimedOut: "TIMEOUT",
		State(42): "UNKNOWN",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d.String() = %q", int(st), st.String())
		}
	}
	if Queued.Terminal() || Running.Terminal() || !Succeeded.Terminal() || !TimedOut.Terminal() {
		t.Fatal("terminality wrong")
	}
}

func TestGridBrokerPicksLeastLoaded(t *testing.T) {
	clk := autoClock(t)
	g, err := New(clk,
		SiteConfig{Name: "small", Nodes: 1, CoresPerNode: 1},
		SiteConfig{Name: "big", Nodes: 4, CoresPerNode: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"small", "big"} {
		s, _ := g.Site(name)
		if err := s.Store().Put(owner, "e.gsh", []byte("compute 2s\n")); err != nil {
			t.Fatal(err)
		}
	}
	// Saturate the small site.
	small, _ := g.Site("small")
	small.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh"})
	j, err := g.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Site != "big" {
		t.Fatalf("broker chose %s", j.Site)
	}
}

func TestGridSubmitRequiresStagingSomewhere(t *testing.T) {
	g, _ := New(vtime.Real{}, SiteConfig{Name: "a", Nodes: 1, CoresPerNode: 1})
	_, err := g.Submit(jsdl.Description{Owner: owner, Executable: "nowhere.gsh"})
	if !errors.Is(err, ErrNotStaged) {
		t.Fatalf("got %v", err)
	}
}

func TestGridJobLookup(t *testing.T) {
	clk := autoClock(t)
	g, _ := New(clk, SiteConfig{Name: "a", Nodes: 1, CoresPerNode: 2})
	s, _ := g.Site("a")
	s.Store().Put(owner, "e.gsh", []byte("echo hi\n"))
	j, err := g.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh", Site: "a"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Job(j.ID)
	if err != nil || got != j {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := g.Job("malformed"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("got %v", err)
	}
	if _, err := g.Job("nosite:job-1"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("got %v", err)
	}
}

func TestGridBatchJobLookup(t *testing.T) {
	clk := autoClock(t)
	g, _ := New(clk, SiteConfig{Name: "a", Nodes: 1, CoresPerNode: 4})
	s, _ := g.Site("a")
	s.Store().Put(owner, "e.gsh", []byte("echo hi\n"))
	j1, err := g.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh", Site: "a"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := g.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh", Site: "a"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, errs := g.Jobs([]string{j1.ID, "malformed", j2.ID, "nosite:job-1"})
	if len(jobs) != 4 || len(errs) != 4 {
		t.Fatalf("lengths %d/%d", len(jobs), len(errs))
	}
	if jobs[0] != j1 || errs[0] != nil || jobs[2] != j2 || errs[2] != nil {
		t.Fatalf("good entries mangled: %v %v", errs[0], errs[2])
	}
	if jobs[1] != nil || !errors.Is(errs[1], ErrNoSuchJob) {
		t.Fatalf("malformed id: job=%v err=%v", jobs[1], errs[1])
	}
	if jobs[3] != nil || !errors.Is(errs[3], ErrNoSuchJob) {
		t.Fatalf("unknown site: job=%v err=%v", jobs[3], errs[3])
	}
}

func TestStdoutVersionTracksAppends(t *testing.T) {
	s := testSite(t, 2)
	stage(t, s, "emit.gsh", "emit 2s 3 tick\n")
	j := submit(t, s, "emit.gsh", nil)
	if v := j.StdoutVersion(); v != 0 {
		t.Fatalf("fresh job version %d", v)
	}
	waitJob(t, j)
	out, ver := j.StdoutVersioned()
	if out != "tick\ntick\ntick\n" {
		t.Fatalf("stdout %q", out)
	}
	if ver != 3 {
		t.Fatalf("version %d after 3 appends", ver)
	}
	// Unchanged output keeps an unchanged version.
	if again := j.StdoutVersion(); again != ver {
		t.Fatalf("version moved without output: %d -> %d", ver, again)
	}
}

func TestGridConstructionErrors(t *testing.T) {
	if _, err := New(vtime.Real{}); !errors.Is(err, ErrNoSites) {
		t.Fatalf("got %v", err)
	}
	if _, err := New(vtime.Real{}, SiteConfig{Name: ""}); err == nil {
		t.Fatal("nameless site accepted")
	}
	if _, err := New(vtime.Real{},
		SiteConfig{Name: "a", Nodes: 1, CoresPerNode: 1},
		SiteConfig{Name: "a", Nodes: 1, CoresPerNode: 1},
	); err == nil {
		t.Fatal("duplicate site accepted")
	}
}

func TestTeraGridHasElevenSites(t *testing.T) {
	g, err := TeraGrid(vtime.Real{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.SiteNames()); n != 11 {
		t.Fatalf("%d sites, want 11", n)
	}
	stats := g.Stats()
	if len(stats) != 11 {
		t.Fatalf("stats for %d sites", len(stats))
	}
	for _, st := range stats {
		if st.Slots <= 0 || st.FreeSlots != st.Slots {
			t.Fatalf("site %s: %+v", st.Name, st)
		}
	}
}

func TestPickSiteRespectsWidth(t *testing.T) {
	g, _ := New(vtime.Real{},
		SiteConfig{Name: "tiny", Nodes: 1, CoresPerNode: 2},
		SiteConfig{Name: "large", Nodes: 8, CoresPerNode: 8},
	)
	s, err := g.PickSite(16)
	if err != nil || s.Name() != "large" {
		t.Fatalf("picked %v err %v", s, err)
	}
	if _, err := g.PickSite(1000); err == nil {
		t.Fatal("impossible width placed")
	}
}

func TestManySmallJobsAcrossGrid(t *testing.T) {
	clk := autoClock(t)
	g, err := TeraGrid(clk)
	if err != nil {
		t.Fatal(err)
	}
	src := []byte("compute 200ms\necho done\n")
	for _, name := range g.SiteNames() {
		s, _ := g.Site(name)
		s.Store().Put(owner, "tiny.gsh", src)
	}
	const n = 100
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := g.Submit(jsdl.Description{Owner: owner, Executable: "tiny.gsh"})
			if err != nil {
				errs <- err
				return
			}
			<-j.Done()
			if j.State() != Succeeded {
				errs <- errors.New(j.ID + " " + j.State().String())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, st := range g.Stats() {
		total += st.Completed
	}
	if total != n {
		t.Fatalf("completed %d, want %d", total, n)
	}
}

func TestStoreQuota(t *testing.T) {
	st := NewStore()
	if err := st.Put("", "f", nil); !errors.Is(err, ErrEmptyOwner) {
		t.Fatalf("got %v", err)
	}
	if err := st.Put("o", "", nil); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("got %v", err)
	}
	if err := st.Put("o", "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Get("o", "f"); string(got) != "data" {
		t.Fatalf("got %q", got)
	}
	if st.Used("o") != 4 {
		t.Fatalf("used %d", st.Used("o"))
	}
	// Replacement adjusts accounting.
	st.Put("o", "f", []byte("xy"))
	if st.Used("o") != 2 {
		t.Fatalf("used after replace %d", st.Used("o"))
	}
	if err := st.Delete("o", "f"); err != nil {
		t.Fatal(err)
	}
	if st.Used("o") != 0 {
		t.Fatalf("used after delete %d", st.Used("o"))
	}
	if err := st.Delete("o", "f"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("got %v", err)
	}
	if _, err := st.Get("o", "f"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("got %v", err)
	}
}

func TestStoreList(t *testing.T) {
	st := NewStore()
	st.Put("o", "b", nil)
	st.Put("o", "a", nil)
	if got := st.List("o"); len(got) != 2 || got[0] != "a" {
		t.Fatalf("list %v", got)
	}
	if got := st.List("stranger"); len(got) != 0 {
		t.Fatalf("list %v", got)
	}
}

func TestJobOutputQuota(t *testing.T) {
	clk := autoClock(t)
	s := NewSite(SiteConfig{Name: "test", Nodes: 1, CoresPerNode: 1, MaxJobOutput: 1000}, clk)
	// Write more than the per-job quota in two files.
	stage(t, s, "big.gsh", "write a.dat 600\nwrite b.dat 600\n")
	j := submit(t, s, "big.gsh", nil)
	waitJob(t, j)
	if j.State() != Failed || !strings.Contains(j.ExitMessage(), "quota") {
		t.Fatalf("state %s msg %q", j.State(), j.ExitMessage())
	}
}

func TestJobConsumesStagedInput(t *testing.T) {
	s := testSite(t, 2)
	stage(t, s, "wordcount.gsh", "read corpus.txt\nprocess corpus.txt 1000\necho counted\n")
	if err := s.Store().Put(owner, "corpus.txt", bytes.Repeat([]byte("w "), 50_000)); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(jsdl.Description{
		Owner: owner, Executable: "wordcount.gsh", StageIn: []string{"corpus.txt"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != Succeeded {
		t.Fatalf("state %s: %s", j.State(), j.ExitMessage())
	}
	if !strings.Contains(j.Stdout(), "read corpus.txt: 100000 bytes") {
		t.Fatalf("stdout %q", j.Stdout())
	}
}

func TestJobReadingUnstagedInputFails(t *testing.T) {
	s := testSite(t, 2)
	// The program reads a file it never declared and which is not staged:
	// submission passes (nothing declared), execution fails cleanly.
	stage(t, s, "sloppy.gsh", "read missing.dat\n")
	j := submit(t, s, "sloppy.gsh", nil)
	waitJob(t, j)
	if j.State() != Failed || !strings.Contains(j.ExitMessage(), "missing.dat") {
		t.Fatalf("state %s msg %q", j.State(), j.ExitMessage())
	}
}

func TestCPUFactorSpeedsJobs(t *testing.T) {
	clk := autoClock(t)
	fast := NewSite(SiteConfig{Name: "fast", Nodes: 1, CoresPerNode: 1, CPUFactor: 4}, clk)
	slow := NewSite(SiteConfig{Name: "slow", Nodes: 1, CoresPerNode: 1, CPUFactor: 1}, clk)
	src := "compute 60s\n"
	fast.Store().Put(owner, "e.gsh", []byte(src))
	slow.Store().Put(owner, "e.gsh", []byte(src))
	jf, _ := fast.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh"})
	js, _ := slow.Submit(jsdl.Description{Owner: owner, Executable: "e.gsh"})
	waitJob(t, jf)
	waitJob(t, js)
	_, fs, fe := jf.Times()
	_, ss, se := js.Times()
	if fdur, sdur := fe.Sub(fs), se.Sub(ss); fdur != 15*time.Second || sdur != time.Minute {
		t.Fatalf("a 60 s compute took %v at CPUFactor 4 and %v at 1, want 15s and 1m", fdur, sdur)
	}
}
