package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/gridsim"
	"repro/internal/trace"
)

// The tests named for the poll hub drive what replaced it: push against a
// stock gatekeeper, whose session workers poll their own jobs.

func TestPollHubSkipsUnchangedSnapshots(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// A job that is silent for three poll ticks and then emits once: the
		// poller must confirm the unchanged snapshot without fetching any bytes.
		f := newPushFixture(t, &eventsGate{mode: gateNotFound}, nil)
		if _, err := f.ons.UploadAndGenerate("alice", "quiet.gsh", "", nil,
			[]byte("compute 10s\necho fin\n")); err != nil {
			t.Fatal(err)
		}
		inv, err := f.ons.Invoke("QuietService", nil)
		if err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if inv.State() != InvDone || inv.Output() != "fin\n" {
			t.Fatalf("state %s output %q", inv.State(), inv.Output())
		}
		stats := f.ons.CollectorStats()
		if stats.OutputNotModified == 0 {
			t.Fatalf("silent ticks fetched output anyway: %+v", stats)
		}
		if stats.OutputBytes != uint64(len("fin\n")) {
			t.Fatalf("fetched %d bytes for %d bytes of output", stats.OutputBytes, len("fin\n"))
		}
		if stats.PollDiskWrites != 1 {
			t.Fatalf("%d disk writes for one output change", stats.PollDiskWrites)
		}
	})
}

// runBatchWorkload invokes n overlapping jobs and waits for all of
// them. It reports failures with t.Error (not t.Fatal) so callers may
// run it off the test goroutine.
func runBatchWorkload(t *testing.T, f *fixture, n int) {
	t.Helper()
	if _, err := f.ons.UploadAndGenerate("alice", "batchy.gsh", "", nil,
		[]byte("compute 1m\necho ok\n")); err != nil {
		t.Error(err)
		return
	}
	invs := make([]*Invocation, 0, n)
	for i := 0; i < n; i++ {
		inv, err := f.ons.Invoke("BatchyService", nil)
		if err != nil {
			t.Error(err)
			return
		}
		invs = append(invs, inv)
	}
	for _, inv := range invs {
		<-inv.DoneChan()
		if inv.State() != InvDone {
			t.Errorf("state %s: %s", inv.State(), inv.Message())
			return
		}
	}
}

func TestPollHubBatchesStatusRPCs(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Eight jobs under one cached session: once the gatekeeper turns out
		// to be stock, the session's worker reads all of them in one
		// status-batch round-trip per tick. In a bubble that is an exact
		// count: each PollInterval the test sleeps holds exactly one of the
		// worker's ticks, and the jobs' compute steps outlast the test.
		const n, ticks = 8, 3
		f := newFixtureHTTP(t, &eventsGate{base: overGrid, mode: gateNotFound}, func(cfg *Config) {
			cfg.PushEvents, cfg.SessionCache = true, true
			// The site's walltime limit derives from it: the jobs outlive the test.
			cfg.InvocationTimeout = 100 * time.Hour
		})
		if _, err := f.ons.UploadAndGenerate("alice", "long.gsh", "", nil, []byte(strings.Repeat("compute 24h\n", 4))); err != nil {
			t.Fatal(err)
		}
		invs := make([]*Invocation, n)
		for i := range invs {
			inv, err := f.ons.Invoke("LongService", nil)
			if err != nil {
				t.Fatal(err)
			}
			invs[i] = inv
		}
		// The worker ticked while the submits took their modelled time;
		// count from here.
		bubble.Wait()
		base := f.ons.CollectorStats().StatusRPCs
		tick := func() {
			time.Sleep(f.cfg.PollInterval)
			bubble.Wait()
		}
		for k := 1; k <= ticks; k++ {
			tick()
			if got := f.ons.CollectorStats().StatusRPCs - base; got != uint64(k) {
				t.Fatalf("%d status RPCs after %d ticks of one session", got, k)
			}
		}
		for _, inv := range invs {
			if inv.State().Terminal() {
				t.Fatalf("invocation ended %s before the last tick: %s", inv.State(), inv.Message())
			}
			if err := f.ons.CancelInvocation(inv.Ticket); err != nil {
				t.Fatal(err)
			}
		}
		// One more batch reads the cancellations; the tick after it reaps them
		// and retires the worker.
		tick()
		tick()
		for _, inv := range invs {
			<-inv.DoneChan()
			if inv.State() != InvCancelled {
				t.Fatalf("state %s: %s", inv.State(), inv.Message())
			}
		}
		f.collectorsIdle(t)
		if got := f.ons.CollectorStats().StatusRPCs - base; got != ticks+1 {
			t.Fatalf("%d status RPCs over %d ticks with jobs to read", got, ticks+1)
		}
	})
}

func TestPollHubIsolatesFailingJob(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// A failing job and a succeeding one share a session, and so a batch;
		// each must reach its own terminal state.
		f := newPushFixture(t, &eventsGate{mode: gateNotFound}, func(cfg *Config) { cfg.SessionCache = true })
		if _, err := f.ons.UploadAndGenerate("alice", "boom.gsh", "", nil,
			[]byte("compute 4s\nfail kaboom\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ons.UploadAndGenerate("alice", "fine.gsh", "", nil,
			[]byte("compute 4s\necho good\n")); err != nil {
			t.Fatal(err)
		}
		bad, err := f.ons.Invoke("BoomService", nil)
		if err != nil {
			t.Fatal(err)
		}
		good, err := f.ons.Invoke("FineService", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range []*Invocation{bad, good} {
			<-inv.DoneChan()
		}
		if bad.State() != InvFailed || !strings.Contains(bad.Message(), "kaboom") {
			t.Fatalf("bad: %s %q", bad.State(), bad.Message())
		}
		if good.State() != InvDone || good.Output() != "good\n" {
			t.Fatalf("good: %s %q", good.State(), good.Output())
		}
	})
}

// cancelOnCompletionTick races CancelInvocation against jobs that are
// just completing: whichever side wins, the invocation must finish
// exactly once with a terminal state (finish double-closing DoneChan
// would panic, and -race flags unsynchronised state).
func cancelOnCompletionTick(t *testing.T, f *fixture) {
	t.Helper()
	if _, err := f.ons.UploadAndGenerate("alice", "quick.gsh", "", nil,
		[]byte("compute 1s\necho done\n")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		inv, err := f.ons.Invoke("QuickService", nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.ons.CancelInvocation(inv.Ticket)
		}()
		<-inv.DoneChan()
		if st := inv.State(); !st.Terminal() {
			t.Fatalf("non-terminal state %s after DoneChan", st)
		}
	}
	wg.Wait()
}

func TestCancelOnCompletionTickStockPoller(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		cancelOnCompletionTick(t, newFixture(t, nil))
	})
}

func TestCancelOnCompletionTickPollHub(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		cancelOnCompletionTick(t, newPushFixture(t, &eventsGate{mode: gateNotFound}, nil))
	})
}

func TestPickSitesZeroSlotSiteSortsLast(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Regression: a drained site reporting zero slots used to make the
		// load formula divide by zero, and the resulting NaN corrupted the
		// sort (the drained site could come back first). A zero-slot site is
		// fully loaded: it must sort after every site with capacity.
		f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = time.Hour })
		f.ons.mu.Lock()
		f.ons.stats = []gridsim.SiteStats{
			{Name: "siteA", Slots: 0, FreeSlots: 0, Queued: 0}, // drained
			{Name: "siteB", Slots: 8, FreeSlots: 2, Queued: 3},
		}
		f.ons.statsAt = time.Now()
		f.ons.mu.Unlock()
		sites, err := f.ons.pickSites("session-unused-cache-warm", heldExecutable(f.ons, "MontecarloService", nil), trace.SpanContext{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sites) != 2 || sites[0] != "siteB" || sites[1] != "siteA" {
			t.Fatalf("zero-slot site not sorted last: %v", sites)
		}
	})
}
