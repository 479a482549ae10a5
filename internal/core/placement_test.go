package core

import (
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// fillerProgram is a valid gsh program padded with comment lines to
// roughly size bytes, so chunked-staging tests get multi-chunk wires.
func fillerProgram(size int) string {
	var b strings.Builder
	b.WriteString("compute 1s\necho staged ok\n")
	line := "# " + strings.Repeat("filler data for the placement tests ", 3) + "\n"
	for b.Len() < size {
		b.WriteString(line)
	}
	return b.String()
}

func TestPlacementScoreWeighting(t *testing.T) {
	cases := []struct {
		name           string
		loadA          float64
		missA          int64
		loadB          float64
		missB          int64
		wantAFirst     bool
		wantAFirstNote string
	}{
		{
			// A tiny payload is not worth chasing: the idle site wins even
			// though it holds nothing.
			name:  "small payload follows load",
			loadA: 0, missA: 64 << 10, // ~0.75 s transfer
			loadB: 0.25, missB: 0, // 7.5 s queueing
			wantAFirst: true,
		},
		{
			// A big payload is: the loaded-but-possessing site beats an idle
			// site that would cold-transfer everything.
			name:  "large payload follows data",
			loadA: 0, missA: 4 << 20, // ~48 s transfer
			loadB: 0.75, missB: 0, // 22.5 s queueing
			wantAFirst: false,
		},
		{
			name:  "all else equal lower load wins",
			loadA: 0.5, missA: 0,
			loadB: 0.25, missB: 0,
			wantAFirst: false,
		},
		{
			name:  "all else equal possession wins",
			loadA: 0.5, missA: 0,
			loadB: 0.5, missB: 1 << 20,
			wantAFirst: true,
		},
	}
	for _, c := range cases {
		a := placementScore(c.loadA, c.missA)
		b := placementScore(c.loadB, c.missB)
		if (a < b) != c.wantAFirst {
			t.Errorf("%s: score A %.2f vs B %.2f, want A first %v", c.name, a, b, c.wantAFirst)
		}
	}
}

func TestOrderScoresDeterministic(t *testing.T) {
	// Equal scores must order by name no matter the input order.
	perms := [][]string{
		{"siteC", "siteA", "siteB"},
		{"siteB", "siteC", "siteA"},
		{"siteA", "siteB", "siteC"},
	}
	for _, p := range perms {
		scores := make([]siteScore, len(p))
		for i, name := range p {
			scores[i] = siteScore{name: name, score: 7.5}
		}
		orderScores(scores)
		if scores[0].name != "siteA" || scores[1].name != "siteB" || scores[2].name != "siteC" {
			t.Fatalf("permutation %v ordered as %v", p, scores)
		}
	}
	// Unequal scores order ascending regardless of name.
	scores := []siteScore{
		{name: "siteA", score: 9},
		{name: "siteZ", score: 1},
		{name: "siteM", score: 5},
	}
	orderScores(scores)
	if scores[0].name != "siteZ" || scores[1].name != "siteM" || scores[2].name != "siteA" {
		t.Fatalf("ordered %v", scores)
	}
}

// TestDataAwarePlacementPrefersPossessingSite is the tentpole's warm
// path: once a service's chunks live at one site, later invocations land
// there and their stagings cross the WAN empty-handed.
func TestDataAwarePlacementPrefersPossessingSite(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.InvocationTimeout = 100 * time.Hour
		cfg.ChunkedStaging = true
		cfg.ChunkBytes = 4 << 10
		cfg.DataAwarePlacement = true
	})
	// Far beyond the test's virtual runtime (the scaled clock turns
	// milliseconds of wall time into virtual hours).
	f.ons.probeTTL = 1000 * time.Hour
	if _, err := f.ons.UploadAndGenerate("alice", "warm.gsh", "", nil,
		[]byte(fillerProgram(64<<10))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.ExecuteAndWait("WarmService", nil); err != nil {
		t.Fatal(err)
	}
	inv1 := f.ons.Invocations()[0]
	shipped := f.ons.StageStats().ChunksShipped
	if shipped == 0 {
		t.Fatal("cold staging shipped no chunks")
	}

	inv2, err := f.ons.Invoke("WarmService", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-inv2.DoneChan()
	if inv2.State() != InvDone {
		t.Fatalf("second invocation %s: %s", inv2.State(), inv2.Message())
	}
	if inv2.Site != inv1.Site {
		t.Fatalf("second invocation left the possessing site: %s then %s", inv1.Site, inv2.Site)
	}
	if got := f.ons.StageStats().ChunksShipped; got != shipped {
		t.Fatalf("warm staging shipped %d chunks, want 0", got-shipped)
	}
	st := f.ons.PlacementStats()
	if st.PlacementsScored != 2 {
		t.Fatalf("placements scored %d, want 2", st.PlacementsScored)
	}
	// First placement probed both sites; the second was answered entirely
	// from the possession cache (the upload's own credit for the winner,
	// the still-fresh probe answer for the loser).
	if st.ProbesSent != 2 {
		t.Fatalf("probes sent %d, want 2", st.ProbesSent)
	}
	if st.ProbeCacheHits != 2 {
		t.Fatalf("probe cache hits %d, want 2", st.ProbeCacheHits)
	}
}

// killSwitch fails every request to one grid host once armed — a site
// dropping off the network mid-burst.
type killSwitch struct {
	host atomic.Value // string
	dead atomic.Bool
}

func (k *killSwitch) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.dead.Load() && req.URL.Host == k.host.Load().(string) {
		return nil, errors.New("injected: site unreachable")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestPlacementProbeFailureDegradesToLoad kills one site's GridFTP
// server mid-burst: probes against it fail, it is scored
// possession-unknown, and every invocation still completes at the
// surviving possessing site — degradation, never an error.
func TestPlacementProbeFailureDegradesToLoad(t *testing.T) {
	ks := &killSwitch{}
	ks.host.Store("")
	// No session cache: every invocation logs on with a fresh proxy, so a
	// slow -race run's virtual hours cannot expire a shared session.
	f := newFixtureHTTP(t, &http.Client{Transport: ks}, func(cfg *Config) {
		// A -race run burns virtual hours of scaled clock on real work
		// (six concurrent 3 MB stagings probing a dead site): keep the
		// watchdog, walltime and per-invocation proxy expiry out of the
		// way — this test is about placement, not deadlines. The timeout
		// stays under jsdl.MaxWallTime since it doubles as the walltime.
		cfg.InvocationTimeout = 160 * time.Hour
		cfg.ProxyLifetime = 1000 * time.Hour
		cfg.ChunkedStaging = true
		cfg.DataAwarePlacement = true
	})
	// Expire possession answers immediately so the burst keeps probing
	// the dead site instead of coasting on the cache.
	f.ons.probeTTL = time.Nanosecond
	// Big enough that the possessing site wins even while the burst loads
	// it: a full cold transfer scores worse than six busy slots.
	if _, err := f.ons.UploadAndGenerate("alice", "big.gsh", "", nil,
		[]byte(fillerProgram(3<<20))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.ExecuteAndWait("BigService", nil); err != nil {
		t.Fatal(err)
	}
	home := f.ons.Invocations()[0].Site

	// Kill the sibling's GridFTP host.
	var sibling string
	for _, s := range []string{"siteA", "siteB"} {
		if s != home {
			sibling = s
		}
	}
	ftpURL, ok := f.parts.Agent.SiteURL(sibling)
	if !ok {
		t.Fatalf("no FTP URL for %s", sibling)
	}
	u, err := url.Parse(ftpURL)
	if err != nil {
		t.Fatal(err)
	}
	ks.host.Store(u.Host)
	ks.dead.Store(true)

	const burst = 6
	var wg sync.WaitGroup
	invs := make([]*Invocation, burst)
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := f.ons.Invoke("BigService", nil)
			invs[i], errs[i] = inv, err
			if err == nil {
				<-inv.DoneChan()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("invocation %d failed outright: %v", i, errs[i])
		}
		if st := invs[i].State(); st != InvDone {
			t.Fatalf("invocation %d %s: %s", i, st, invs[i].Message())
		}
		if invs[i].Site != home {
			t.Fatalf("invocation %d placed at the dead site %s", i, invs[i].Site)
		}
	}
	st := f.ons.PlacementStats()
	if st.ProbeFailures == 0 {
		t.Fatalf("dead site's probes never failed: %+v", st)
	}
	if st.PlacementsScored < burst {
		t.Fatalf("placements scored %d, want at least %d", st.PlacementsScored, burst)
	}
}

// TestConcurrentPlacementAndReplication races a burst through every
// placement-path feature at once — probe cache, singleflight, staging
// coalescing and the staging cache's site-to-site replication — under
// -race.
func TestConcurrentPlacementAndReplication(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.InvocationTimeout = 100 * time.Hour
		cfg.StagingCache = true
		cfg.CoalesceStaging = true
		cfg.ChunkedStaging = true
		cfg.ChunkBytes = 4 << 10
		cfg.DataAwarePlacement = true
		cfg.StatsTTL = 3 * time.Second
	})
	if _, err := f.ons.UploadAndGenerate("alice", "racey.gsh", "", nil,
		[]byte(fillerProgram(32<<10))); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.ons.ExecuteAndWait("RaceyService", nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	st := f.ons.PlacementStats()
	if st.PlacementsScored != workers {
		t.Fatalf("placements scored %d, want %d", st.PlacementsScored, workers)
	}
	if st.ProbeFailures != 0 {
		t.Fatalf("healthy grid produced failures: %+v", st)
	}
}

// TestPlacementStatsZeroWhenOff pins the paper-faithful default: with
// the knob off, no probes and no scoring.
func TestPlacementStatsZeroWhenOff(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "3"}); err != nil {
		t.Fatal(err)
	}
	if st := f.ons.PlacementStats(); st != (PlacementStats{}) {
		t.Fatalf("stock invocation touched placement counters: %+v", st)
	}
}

// TestDeleteServiceForgetsPossession: deleting a service drops its
// cached possession answers so a re-published namesake starts cold.
func TestDeleteServiceForgetsPossession(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.ChunkedStaging = true
		cfg.DataAwarePlacement = true
	})
	f.ons.probeTTL = 10 * time.Minute
	f.uploadDemo(t)
	if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
		t.Fatal(err)
	}
	f.ons.poss.mu.Lock()
	cached := len(f.ons.poss.cache)
	f.ons.poss.mu.Unlock()
	if cached == 0 {
		t.Fatal("placement left no possession answers behind")
	}
	if err := f.ons.DeleteService("MontecarloService"); err != nil {
		t.Fatal(err)
	}
	f.ons.poss.mu.Lock()
	for k := range f.ons.poss.cache {
		if strings.HasPrefix(k, "MontecarloService|") {
			t.Errorf("stale possession entry %q survived delete", k)
		}
	}
	f.ons.poss.mu.Unlock()
}

// TestProbeCacheSingleflight: concurrent placements for one cold
// service|site pair collapse onto a single probe.
func TestProbeCacheSingleflight(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.SessionCache = true
		cfg.ChunkedStaging = true
		cfg.DataAwarePlacement = true
	})
	f.ons.probeTTL = 10 * time.Minute
	if _, err := f.ons.UploadAndGenerate("alice", "flock.gsh", "", nil,
		[]byte(fillerProgram(16<<10))); err != nil {
		t.Fatal(err)
	}
	auth, err := f.ons.userAuth("alice")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := f.ons.openExecutable("FlockService", nil)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.ons.probePossession(sess, "siteA", exe)
		}()
	}
	wg.Wait()
	st := f.ons.PlacementStats()
	if st.ProbesSent != 1 {
		t.Fatalf("%d concurrent placements sent %d probes, want 1", callers, st.ProbesSent)
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtPossession(0.5); got != "0.50" {
		t.Fatalf("fmtPossession %q", got)
	}
	if probeLabel(true) != "known" || probeLabel(false) != "unknown" {
		t.Fatal("probeLabel labels wrong")
	}
	e := possEntry{missing: 25, total: 100, ok: true}
	if got := e.possession(); got != 0.75 {
		t.Fatalf("possession %v", got)
	}
	bad := possEntry{missing: 100, total: 100}
	if got := bad.possession(); got != 0 {
		t.Fatalf("unknown possession %v, want 0", got)
	}
}
