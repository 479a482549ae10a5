package core

import (
	"errors"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/vtime"
)

// newWANFixture wires an onServe over a single-site grid whose servers
// answer across the paper's shaped WAN (~85 KB/s), on an event clock and
// gridNet.
func newWANFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	clk := vtime.NewAuto()
	t.Cleanup(clk.Stop)
	env, err := gridenv.Start(gridenv.Options{
		Clock:   clk,
		Sites:   []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}},
		Profile: netsim.WAN(clk),
		Net:     gridNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	db, err := blobdb.Open(blobdb.Options{Clock: clk, Probe: probe, Cost: metrics.DefaultCost()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	parts := Parts{
		DB:        db,
		Container: soap.NewServer(probe, metrics.DefaultCost()),
		Registry:  uddi.NewRegistry(clk),
		Agent: cyberaide.New(cyberaide.Options{
			Endpoints: env.Endpoints(), Clock: clk, Probe: probe, Cost: metrics.DefaultCost(),
			Dial: gridNet.DialContext,
		}),
		BaseURL: "http://appliance.test",
	}
	cfg := Config{
		Clock:             clk,
		Probe:             probe,
		Cost:              metrics.DefaultCost(),
		PollInterval:      2 * time.Second,
		InvocationTimeout: time.Hour,
		SessionCache:      true,
		StatsTTL:          time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ons, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	ons.RegisterUser("alice", UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	return &fixture{ons: ons, env: env, rec: rec, clock: clk, cfg: cfg, parts: parts}
}

// uploadGate is the grid-bound transport of a fixture whose staging
// transfers can be held: once armed, a GridFTP PUT announces itself on
// parked and waits for release to close.
type uploadGate struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newUploadGate() *uploadGate {
	return &uploadGate{parked: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *uploadGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.armed.Load() && req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/ftp/") {
		g.parked <- struct{}{}
		<-g.release
	}
	return overGrid.RoundTrip(req)
}

// awaitStagingWaiters returns once n arrivals are parked on the one
// open staging flight.
func awaitStagingWaiters(t *testing.T, o *OnServe, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := 0
		o.mu.Lock()
		for _, fl := range o.stagingFlights {
			got += fl.waiters
		}
		o.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d arrivals joined the staging flight", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// stagingBurst uploads a padded executable, warms the session and stats
// caches with one sequential invocation, then fires n simultaneous
// invocations and returns the submit-counter deltas over the burst. With
// a gate, the first transfer of the burst is held on the wire until the
// other n-1 invocations are parked on its flight.
func stagingBurst(t *testing.T, f *fixture, n int, gate *uploadGate) SubmitStats {
	t.Helper()
	program := gsh.Pad([]byte("compute 1s\necho ok\n"), 512<<10)
	if _, err := f.ons.UploadAndGenerate("alice", "burst.gsh", "", nil, program); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.ExecuteAndWait("BurstService", nil); err != nil {
		t.Fatal(err)
	}
	before := f.ons.SubmitStats()
	if gate != nil {
		gate.armed.Store(true)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := f.ons.Invoke("BurstService", nil)
			if err != nil {
				errs <- err
				return
			}
			<-inv.DoneChan()
			if st := inv.State(); st != InvDone {
				errs <- errors.New("invocation ended " + string(st) + ": " + inv.Message())
			}
		}()
	}
	if gate != nil {
		<-gate.parked
		awaitStagingWaiters(t, f.ons, n-1)
		close(gate.release)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	after := f.ons.SubmitStats()
	return SubmitStats{
		Uploads:          after.Uploads - before.Uploads,
		UploadsCoalesced: after.UploadsCoalesced - before.UploadsCoalesced,
		SubmitRPCs:       after.SubmitRPCs - before.SubmitRPCs,
		StatsRPCs:        after.StatsRPCs - before.StatsRPCs,
		StatsCollapsed:   after.StatsCollapsed - before.StatsCollapsed,
	}
}

func TestColdBurstStagingStockUploadsPerInvocation(t *testing.T) {
	f := newWANFixture(t, nil)
	const n = 8
	d := stagingBurst(t, f, n, nil)
	// Paper-faithful: every invocation pushes the full blob across the
	// WAN again, even while an identical transfer is in flight.
	if d.Uploads != n {
		t.Fatalf("stock burst made %d uploads, want %d", d.Uploads, n)
	}
	if d.UploadsCoalesced != 0 {
		t.Fatalf("stock burst coalesced %d uploads", d.UploadsCoalesced)
	}
}

func TestColdBurstStagingCoalescedSingleUpload(t *testing.T) {
	// The contract is "arrivals while a transfer is in flight share it",
	// so the test makes the overlap a fact instead of a likelihood: the
	// leader's PUT is held at the transport until the other n-1
	// invocations are parked on its flight.
	gate := newUploadGate()
	f := newFixtureHTTP(t, gate, func(cfg *Config) {
		cfg.CoalesceStaging = true
		cfg.SessionCache = true
		cfg.StatsTTL = time.Hour
	})
	const n = 8
	d := stagingBurst(t, f, n, gate)
	if d.Uploads != 1 {
		t.Fatalf("coalesced burst made %d uploads, want exactly 1", d.Uploads)
	}
	if d.UploadsCoalesced != n-1 {
		t.Fatalf("coalesced burst: %d waiters coalesced, want %d", d.UploadsCoalesced, n-1)
	}
}

func TestStagingSessionFaultRetriesWithFreshLogon(t *testing.T) {
	// A session fault surfacing during staging must flow through Invoke's
	// invalidate-and-retry path and complete the invocation on a fresh
	// logon — with and without coalescing (a flight leader's failure is
	// handed to the pipeline the same way).
	for _, coalesce := range []bool{false, true} {
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache = true
			cfg.StatsTTL = time.Hour
			cfg.CoalesceStaging = coalesce
		})
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
		// Kill the cached session behind onServe's back: the next staging
		// upload fails with ErrNoSession.
		f.ons.mu.Lock()
		cached := f.ons.sessions["alice"].id
		f.ons.mu.Unlock()
		f.parts.Agent.Logout(cached)
		out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "2"})
		if err != nil {
			t.Fatalf("coalesce=%v: invocation after session death: %v (%q)", coalesce, err, out)
		}
	}
}

func TestReplicateSessionFaultPropagatesWithoutDoomedUpload(t *testing.T) {
	// Regression: stageExecutable used to swallow every Replicate error
	// and fall through to a fresh upload. For a session fault the upload
	// is doomed too — the error must surface (so Invoke's retry fires)
	// without burning a second WAN round-trip on the dead session.
	f := newFixture(t, func(cfg *Config) { cfg.StagingCache = true })
	sess, err := f.parts.Agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	exe := heldExecutable(f.ons, "RepService", []byte("echo hi\n"))
	if err := f.ons.stageExecutable(sess.ID, exe, "siteA", nil); err != nil {
		t.Fatal(err)
	}
	f.parts.Agent.Logout(sess.ID)
	before := f.ons.SubmitStats().Uploads
	err = f.ons.stageExecutable(sess.ID, exe, "siteB", nil)
	if !errors.Is(err, cyberaide.ErrNoSession) {
		t.Fatalf("replicate session fault not propagated: %v", err)
	}
	if got := f.ons.SubmitStats().Uploads; got != before {
		t.Fatalf("doomed fall-through upload attempted (%d -> %d uploads)", before, got)
	}
}

func TestInvocationsSortedByTicket(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	var issued []string
	for i := 0; i < 5; i++ {
		inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
		if err != nil {
			t.Fatal(err)
		}
		issued = append(issued, inv.Ticket)
		<-inv.DoneChan()
	}
	listed := f.ons.Invocations()
	if len(listed) != len(issued) {
		t.Fatalf("listed %d invocations, want %d", len(listed), len(issued))
	}
	for i, inv := range listed {
		if inv.Ticket != issued[i] {
			t.Fatalf("listing not in issue order: position %d has %s, want %s", i, inv.Ticket, issued[i])
		}
	}
	if !sort.SliceIsSorted(listed, func(i, j int) bool { return listed[i].Ticket < listed[j].Ticket }) {
		t.Fatal("listing not sorted by ticket")
	}
}

func TestStageInRetryFallsBackToStagedSite(t *testing.T) {
	// A submission rejected "not staged" sends the pipeline to the next
	// candidate: the site where the owner actually staged the data.
	f := newFixture(t, nil)
	if _, err := f.ons.UploadAndGenerate("alice", "wordcount.gsh", "", nil,
		[]byte("process corpus.txt 1000\necho counted\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.ons.SetStageIn("WordcountService", []string{"corpus.txt"}); err != nil {
		t.Fatal(err)
	}
	// Corpus staged at siteB only; both sites idle, so pickSites tries
	// siteA first and its submission is rejected "not staged".
	siteB, _ := f.env.Grid.Site("siteB")
	siteB.Store().Put("/O=Repro/CN=alice", "corpus.txt", []byte(strings.Repeat("word ", 1000)))
	inv, err := f.ons.Invoke("WordcountService", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Site != "siteB" {
		t.Fatalf("submitted to %s, want the staged-data fallback siteB", inv.Site)
	}
	<-inv.DoneChan()
	if inv.State() != InvDone {
		t.Fatalf("state %s: %s", inv.State(), inv.Message())
	}
}

func TestGridStatsExpiryStampedeCollapsesToOneFetch(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = 30 * time.Second })
	sess, err := f.parts.Agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Plant an expired snapshot so every caller observes a miss at once.
	f.ons.mu.Lock()
	f.ons.stats = []gridsim.SiteStats{{Name: "siteA", Slots: 8, FreeSlots: 8}}
	f.ons.statsAt = f.clock.Now().Add(-time.Hour)
	f.ons.mu.Unlock()
	before := f.ons.SubmitStats().StatsRPCs
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := f.ons.gridStats(sess.ID)
			if err != nil {
				errs <- err
				return
			}
			if len(stats) == 0 {
				errs <- errors.New("empty stats snapshot")
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := f.ons.SubmitStats().StatsRPCs - before; got != 1 {
		t.Fatalf("stampede on the expired snapshot cost %d fetches, want 1", got)
	}
}

// TestStagingCacheHitLeadsNoFlight: under CoalesceStaging a staging-cache
// hit is answered before the flight table is consulted — no key, no
// flight, no channel: nothing at all is allocated.
func TestStagingCacheHitLeadsNoFlight(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.StagingCache = true
		cfg.CoalesceStaging = true
	})
	exe := heldExecutable(f.ons, "HitService", []byte("echo hi\n"))
	f.ons.noteStaged("HitService", "siteA", "sum")
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.ons.stageExecutable("no-session", exe, "siteA", nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a staging-cache hit allocates %.0f objects, want 0", allocs)
	}
	if st := f.ons.SubmitStats(); st.Uploads != 0 || st.UploadsCoalesced != 0 || len(f.ons.stagingFlights) != 0 {
		t.Fatalf("a staging-cache hit staged: %+v, %d flights", st, len(f.ons.stagingFlights))
	}
}
