package core

import (
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/gridftp"
	"repro/internal/gridsim"
	"repro/internal/hop/hoptest"
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
	for _, c := range []struct {
		name         string
		loadA, loadB float64
		missA, missB int64
		wantAFirst   bool
	}{
		// A tiny payload is not worth chasing: the idle site wins even
		// though it holds nothing (~0.75 s transfer against 7.5 s queueing).
		{"small payload follows load", 0, 0.25, 64 << 10, 0, true},
		// A big payload is: the loaded-but-possessing site beats an idle
		// site that would cold-transfer everything (~48 s against 22.5 s).
		{"large payload follows data", 0, 0.75, 4 << 20, 0, false},
		{"all else equal lower load wins", 0.5, 0.25, 0, 0, false},
		{"all else equal possession wins", 0.5, 0.5, 0, 1 << 20, true},
	} {
		a, b := placementScore(c.loadA, c.missA), placementScore(c.loadB, c.missB)
		if (a < b) != c.wantAFirst {
			t.Errorf("%s: score A %.2f vs B %.2f, want A first %v", c.name, a, b, c.wantAFirst)
		}
	}
}

func TestOrderScoresDeterministic(t *testing.T) {
	order := func(names []string, score func(i int) float64) string {
		scores := make([]siteScore, len(names))
		for i, name := range names {
			scores[i] = siteScore{name: name, score: score(i)}
		}
		orderScores(scores)
		var got []string
		for _, s := range scores {
			got = append(got, s.name)
		}
		return strings.Join(got, " ")
	}
	// Equal scores must order by name no matter the input order.
	for _, p := range [][]string{{"siteC", "siteA", "siteB"}, {"siteB", "siteC", "siteA"}, {"siteA", "siteB", "siteC"}} {
		if got := order(p, func(int) float64 { return 7.5 }); got != "siteA siteB siteC" {
			t.Fatalf("permutation %v ordered as %s", p, got)
		}
	}
	// Unequal scores order ascending regardless of name.
	if got := order([]string{"siteA", "siteZ", "siteM"}, func(i int) float64 { return []float64{9, 1, 5}[i] }); got != "siteZ siteM siteA" {
		t.Fatalf("ordered %s", got)
	}
}

// TestDataAwarePlacementPrefersPossessingSite is the tentpole's warm
// path: once a service's chunks live at one site, later invocations land
// there and their stagings cross the WAN empty-handed.
func TestDataAwarePlacementPrefersPossessingSite(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.InvocationTimeout = 100 * time.Hour
			cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true
		})
		// Far beyond the test's virtual runtime.
		f.ons.poss.ttl = 1000 * time.Hour
		svc := f.publish(t, "warm.gsh", fillerProgram(16*gridftp.DefaultChunkBytes))
		inv1 := ends(t, f.invoke(t, svc, nil), InvDone)
		shipped := f.ons.StageStats().ChunksShipped
		if shipped == 0 {
			t.Fatal("cold staging shipped no chunks")
		}
		if inv2 := ends(t, f.invoke(t, svc, nil), InvDone); inv2.Site != inv1.Site {
			t.Fatalf("second invocation left the possessing site: %s then %s", inv1.Site, inv2.Site)
		}
		if got := f.ons.StageStats().ChunksShipped; got != shipped {
			t.Fatalf("warm staging shipped %d chunks, want 0", got-shipped)
		}
		// First placement probed both sites; the second was answered entirely
		// from the possession cache (the upload's own credit for the winner,
		// the still-fresh probe answer for the loser).
		if st := f.ons.PlacementStats(); st.PlacementsScored != 2 || st.ProbesSent != 2 || st.ProbeCacheHits != 2 {
			t.Fatalf("%+v: want 2 placements scored, 2 probes sent, 2 cache hits", st)
		}
	})
}

// TestPlacementProbeFailureDegradesToLoad kills one site's GridFTP
// server mid-burst: probes against it fail, it is scored
// possession-unknown, and every invocation still completes at the
// surviving possessing site — degradation, never an error.
func TestPlacementProbeFailureDegradesToLoad(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true })
		// Expire possession answers immediately so the burst keeps probing
		// the dead site instead of coasting on the cache.
		f.ons.poss.ttl = time.Nanosecond
		// Big enough that the possessing site wins even while the burst loads
		// it: a full cold transfer scores worse than six busy slots.
		svc := f.publish(t, "big.gsh", fillerProgram(3<<20))
		home := ends(t, f.invoke(t, svc, nil), InvDone).Site
		// Kill the sibling's GridFTP host.
		sibling := map[string]string{"siteA": "siteB", "siteB": "siteA"}[home]
		ftpURL, ok := f.parts.Agent.SiteURL(sibling)
		u, err := url.Parse(ftpURL)
		if !ok || err != nil {
			t.Fatalf("no FTP URL for %s: %v", sibling, err)
		}
		f.grid.Add(&hoptest.Rule{When: func(req *http.Request) bool { return req.URL.Host == u.Host }, Do: hoptest.Fail})
		const n = 6
		burst(t, n, func(i int) error {
			inv, err := f.ons.Invoke(svc, nil)
			if err != nil {
				return fmt.Errorf("invocation %d failed outright: %w", i, err)
			}
			if <-inv.DoneChan(); inv.State() != InvDone || inv.Site != home {
				return fmt.Errorf("invocation %d ended %s at %s (%s), want DONE at %s", i, inv.State(), inv.Site, inv.Message(), home)
			}
			return nil
		})
		if st := f.ons.PlacementStats(); st.ProbeFailures == 0 || st.PlacementsScored < n {
			t.Fatalf("%+v: want the dead site's probes failed and at least %d placements scored", st, n)
		}
	})
}

// TestConcurrentPlacementAndReplication races a burst through every
// placement-path feature at once — probe cache, singleflight, staging
// coalescing and the staging cache's site-to-site replication — under
// -race.
func TestConcurrentPlacementAndReplication(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.InvocationTimeout, cfg.StatsTTL = 100*time.Hour, 3*time.Second
			cfg.StagingCache, cfg.CoalesceStaging = true, true
			cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true
		})
		svc := f.publish(t, "racey.gsh", fillerProgram(8*gridftp.DefaultChunkBytes))
		const workers = 8
		burst(t, workers, func(int) error { _, err := f.ons.ExecuteAndWait(svc, nil); return err })
		if st := f.ons.PlacementStats(); st.PlacementsScored != workers || st.ProbeFailures != 0 {
			t.Fatalf("%+v: want %d placements scored on a healthy grid, no failures", st, workers)
		}
	})
}

// TestPlacementStatsZeroWhenOff pins the paper-faithful default: with
// the knob off, no probes and no scoring.
func TestPlacementStatsZeroWhenOff(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		f.demo(t, "3")
		if st := f.ons.PlacementStats(); st != (PlacementStats{}) {
			t.Fatalf("stock invocation touched placement counters: %+v", st)
		}
	})
}

// TestDeleteServiceForgetsPossession: deleting a service drops its
// cached possession answers so a re-published namesake starts cold.
func TestDeleteServiceForgetsPossession(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true })
		f.ons.poss.ttl = 10 * time.Minute
		f.uploadDemo(t)
		f.demo(t, "1")
		f.ons.poss.mu.Lock()
		cached := len(f.ons.poss.cache)
		f.ons.poss.mu.Unlock()
		if cached == 0 {
			t.Fatal("placement left no possession answers behind")
		}
		must(t, f.ons.DeleteService("MontecarloService"))
		f.ons.poss.mu.Lock()
		for k := range f.ons.poss.cache {
			if k.service == "MontecarloService" {
				t.Errorf("stale possession entry %+v survived delete", k)
			}
		}
		f.ons.poss.mu.Unlock()
	})
}

// TestProbeCacheSingleflight: concurrent placements for one cold
// service|site pair collapse onto a single probe.
func TestProbeCacheSingleflight(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache, cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true, true })
		f.ons.poss.ttl = 10 * time.Minute
		f.publish(t, "flock.gsh", fillerProgram(16<<10))
		auth, err := f.ons.userAuth("alice")
		must(t, err)
		sess, _, err := f.ons.auth.session("alice", auth, trace.SpanContext{})
		must(t, err)
		exe, err := f.ons.openExecutable("FlockService", nil)
		must(t, err)
		const callers = 16
		burst(t, callers, func(int) error { f.ons.poss.probe(sess, "siteA", exe); return nil })
		if st := f.ons.PlacementStats(); st.ProbesSent != 1 {
			t.Fatalf("%d concurrent placements sent %d probes, want 1", callers, st.ProbesSent)
		}
	})
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtPossession(0.5); got != "0.50" || probeLabel(true) != "known" || probeLabel(false) != "unknown" {
		t.Fatalf("fmtPossession %q, probeLabel %q and %q", got, probeLabel(true), probeLabel(false))
	}
	known, unknown := possEntry{missing: 25, total: 100, ok: true}, possEntry{missing: 100, total: 100}
	if known.possession() != 0.75 || unknown.possession() != 0 {
		t.Fatalf("possession %v, unknown possession %v; want 0.75 and 0", known.possession(), unknown.possession())
	}
}

// TestCachedPlacementAllocations: a placement the possession cache answers
// for every site is scored under one lock, on the caller's goroutine — no
// probe goroutine — and allocates nothing: the scores and the order are in
// arrays on the stack.
func TestCachedPlacementAllocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true })
		f.ons.poss.ttl = 1000 * time.Hour
		exe := heldExecutable(t, f.ons, "CachedService", []byte("echo hi\n"))
		cands := []siteLoad{{name: "siteA", load: 0.5}, {name: "siteB", load: 0}}
		now := time.Now()
		f.ons.poss.mu.Lock()
		f.ons.poss.cache[siteKey{"CachedService", "siteA"}] = possEntry{total: 4 << 20, ok: true, at: now}
		f.ons.poss.cache[siteKey{"CachedService", "siteB"}] = possEntry{missing: 4 << 20, total: 4 << 20, ok: true, at: now}
		f.ons.poss.mu.Unlock()
		place := func() {
			var sites [8]string
			if order := f.ons.poss.order("", exe, cands, trace.SpanContext{}, sites[:]); len(order) != 2 || order[0] != "siteA" {
				t.Fatalf("placed %s, want the possessing siteA first", strings.Join(order, " "))
			}
		}

		// With the possession cache's lock held, a placement blocks where it
		// scores the sites the cache answers: that goroutine's stack says
		// whether it is the caller's.
		f.ons.poss.mu.Lock()
		placed := make(chan struct{})
		go func() { place(); close(placed) }()
		var scorer string
		for scorer == "" {
			runtime.Gosched()
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			for _, g := range strings.Split(string(buf), "\n\n") {
				if strings.Contains(g, "core.(*possession).order") && strings.Contains(g, "(*Mutex).Lock") {
					scorer = g
				}
			}
		}
		f.ons.poss.mu.Unlock()
		<-placed
		if strings.Contains(scorer, "created by repro/internal/core.(*possession).order") {
			t.Fatalf("a placement the cache answers scored on a goroutine of its own:\n%s", scorer)
		}
		allocs := testing.AllocsPerRun(100, place)
		if st := f.ons.PlacementStats(); allocs > 0 || st.ProbesSent != 0 || st.ProbeCacheHits != 2*(1+101) {
			t.Fatalf("a placement the cache answers allocates %.0f objects (want 0); %+v, want no probe and two cache hits per placement", allocs, st)
		}
	})
}

// TestLoadPlacementAllocations: the paper's placement, by load alone,
// over a statistics snapshot the TTL cache answers, orders the sites into
// the caller's [8]string and allocates nothing.
func TestLoadPlacementAllocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = 1000 * time.Hour })
		f.setStats(time.Now(), gridsim.SiteStats{Name: "siteA", Slots: 8, FreeSlots: 2}, gridsim.SiteStats{Name: "siteB", Slots: 8, FreeSlots: 8})
		exe := heldExecutable(t, f.ons, "LoadService", []byte("echo hi\n"))
		allocs := testing.AllocsPerRun(100, func() {
			var sites [8]string
			if order, err := f.ons.pickSites("", exe, trace.SpanContext{}, sites[:]); err != nil || len(order) != 2 || order[0] != "siteB" {
				t.Fatalf("placed %s (%v), want the idle siteB first", strings.Join(order, " "), err)
			}
		})
		if st := f.ons.SubmitStats(); allocs > 0 || st.StatsRPCs != 0 {
			t.Fatalf("a placement by load over a cached snapshot allocates %.0f objects (want 0) and fetched statistics %d times", allocs, st.StatsRPCs)
		}
	})
}

func TestPickSitesZeroSlotSiteSortsLast(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Regression: a drained site reporting zero slots used to make the
		// load formula divide by zero, and the resulting NaN corrupted the
		// sort (the drained site could come back first). A zero-slot site is
		// fully loaded: it must sort after every site with capacity.
		f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = time.Hour })
		f.setStats(time.Now(), gridsim.SiteStats{Name: "siteA"}, gridsim.SiteStats{Name: "siteB", Slots: 8, FreeSlots: 2, Queued: 3})
		sites, err := f.ons.pickSites("session-unused-cache-warm", heldExecutable(t, f.ons, "MontecarloService", nil), trace.SpanContext{}, nil)
		if err != nil || len(sites) != 2 || sites[0] != "siteB" || sites[1] != "siteA" {
			t.Fatalf("zero-slot site not sorted last: %v, %v", sites, err)
		}
	})
}
