package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/trace"
)

func TestPollHubSkipsUnchangedSnapshots(t *testing.T) {
	// A job that is silent for three poll ticks and then emits once: the
	// hub must confirm the unchanged snapshot without fetching any bytes.
	f := newFixture(t, nil).hubAlone(pollHubShards)
	if _, err := f.ons.UploadAndGenerate("alice", "quiet.gsh", "", nil,
		[]byte("compute 5m\necho fin\n")); err != nil {
		t.Fatal(err)
	}
	inv, err := f.ons.Invoke("QuietService", nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inv.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatal("invocation stuck")
	}
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
}

// runBatchWorkload invokes n overlapping jobs and waits for all of
// them. It reports failures with t.Error (not t.Fatal) so callers may
// run it off the test goroutine.
func runBatchWorkload(t *testing.T, f *fixture, n int) {
	t.Helper()
	if _, err := f.ons.UploadAndGenerate("alice", "batchy.gsh", "", nil,
		[]byte("compute 30m\necho ok\n")); err != nil {
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
		select {
		case <-inv.DoneChan():
		case <-time.After(10 * time.Second):
			t.Error("invocation stuck")
			return
		}
		if inv.State() != InvDone {
			t.Errorf("state %s: %s", inv.State(), inv.Message())
			return
		}
	}
}

func TestPollHubBatchesStatusRPCs(t *testing.T) {
	// Same workload, stock poller vs single-shard hub: the hub needs one
	// status round-trip per tick where the stock poller needs one per
	// invocation per tick. The two workloads run concurrently so both
	// see the same real-time machine load — run back to back, a stall
	// (full-suite -race scheduling) landing on only one phase starves
	// its pollers of ticks and can invert the count comparison.
	const n = 6
	stock := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
	hub := newFixture(t, func(cfg *Config) { cfg.SessionCache = true }).hubAlone(1)
	var wg sync.WaitGroup
	for _, f := range []*fixture{stock, hub} {
		wg.Add(1)
		go func(f *fixture) {
			defer wg.Done()
			runBatchWorkload(t, f, n)
		}(f)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	sRPC := stock.ons.CollectorStats().StatusRPCs
	hRPC := hub.ons.CollectorStats().StatusRPCs
	if hRPC == 0 || hRPC >= sRPC {
		t.Fatalf("hub used %d status RPCs, stock %d", hRPC, sRPC)
	}
}

func TestPollHubIsolatesFailingJob(t *testing.T) {
	// A failing job and a succeeding one share a session (and with one
	// shard, a batch); each must reach its own terminal state.
	f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true }).hubAlone(1)
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
		select {
		case <-inv.DoneChan():
		case <-time.After(10 * time.Second):
			t.Fatal("invocation stuck")
		}
	}
	if bad.State() != InvFailed || !strings.Contains(bad.Message(), "kaboom") {
		t.Fatalf("bad: %s %q", bad.State(), bad.Message())
	}
	if good.State() != InvDone || good.Output() != "good\n" {
		t.Fatalf("good: %s %q", good.State(), good.Output())
	}
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
		select {
		case <-inv.DoneChan():
		case <-time.After(10 * time.Second):
			t.Fatal("invocation hung under the cancel/complete race")
		}
		if st := inv.State(); !st.Terminal() {
			t.Fatalf("non-terminal state %s after DoneChan", st)
		}
	}
	wg.Wait()
}

func TestCancelOnCompletionTickStockPoller(t *testing.T) {
	cancelOnCompletionTick(t, newFixture(t, nil))
}

func TestCancelOnCompletionTickPollHub(t *testing.T) {
	cancelOnCompletionTick(t, newFixture(t, nil).hubAlone(2))
}

func TestPickSitesZeroSlotSiteSortsLast(t *testing.T) {
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
	f.ons.statsAt = f.clock.Now()
	f.ons.mu.Unlock()
	sites, err := f.ons.pickSites("session-unused-cache-warm", heldExecutable(f.ons, "MontecarloService", nil), trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 || sites[0] != "siteB" || sites[1] != "siteA" {
		t.Fatalf("zero-slot site not sorted last: %v", sites)
	}
}
