package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/gridsim"
	"repro/internal/trace"
)

// waitFor lets every other goroutine of the test's bubble run until it
// blocks, and then requires cond. Terminal callbacks run on poller
// goroutines just after DoneChan closes, so map-shape assertions wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	bubble.Wait()
	if !cond() {
		t.Fatal("condition not reached")
	}
}

func TestSessionCacheReusesSession(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
		f.uploadDemo(t)
		for i := 0; i < 3; i++ {
			if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
				t.Fatal(err)
			}
		}
		if n := f.parts.Agent.SessionCount(); n != 1 {
			t.Fatalf("agent holds %d sessions, want 1 reused session", n)
		}
	})
}

func TestStockAuthenticatesPerInvocation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil) // cache off: the paper's behaviour
		f.uploadDemo(t)
		for i := 0; i < 2; i++ {
			if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
				t.Fatal(err)
			}
		}
		if n := f.parts.Agent.Logons(); n != 2 {
			t.Fatalf("%d logons, want one fresh logon per invocation", n)
		}
		// ... and each is logged out when its invocation is over.
		waitFor(t, func() bool { return f.parts.Agent.SessionCount() == 0 })
	})
}

func TestGridSessionExpiryReauthenticates(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
		auth := UserAuth{MyProxyUser: "alice", Passphrase: "pw"}
		id1, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
		if err != nil || cached {
			t.Fatalf("first session id=%q cached=%v err=%v", id1, cached, err)
		}
		id2, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
		if err != nil || !cached || id2 != id1 {
			t.Fatalf("second session id=%q cached=%v err=%v, want cached %q", id2, cached, err, id1)
		}
		// Age the cached entry past its expiry margin: the next call must
		// perform a fresh logon instead of handing out the stale session.
		f.ons.mu.Lock()
		f.ons.sessions["alice"].expiresAt = time.Now().Add(-time.Second)
		f.ons.mu.Unlock()
		id3, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
		if err != nil || cached {
			t.Fatalf("expired session id=%q cached=%v err=%v, want fresh logon", id3, cached, err)
		}
		if f.parts.Agent.SessionCount() != 2 {
			t.Fatalf("agent sessions %d, want 2 (initial + re-auth)", f.parts.Agent.SessionCount())
		}
	})
}

func TestSessionCacheInvalidatedOnAuthFault(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
		f.ons.mu.Lock()
		cachedID := f.ons.sessions["alice"].id
		f.ons.mu.Unlock()
		// Kill the session behind the cache's back (an agent-side expiry): the
		// next invocation must invalidate the stale entry, re-authenticate and
		// still succeed.
		f.parts.Agent.Logout(cachedID)
		if out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "2"}); err != nil {
			t.Fatalf("invocation after session loss failed (%q): %v", out, err)
		}
		f.ons.mu.Lock()
		newID := f.ons.sessions["alice"].id
		f.ons.mu.Unlock()
		if newID == cachedID {
			t.Fatalf("stale session %q still cached", cachedID)
		}
	})
}

// TestDeadSessionIsLoggedOutOfTheAgent: a cached session whose proxy
// has expired under it is refused by the agent; the invocation that finds
// out re-authenticates, and the dead session leaves the agent's table
// with the cache entry instead of staying there for good. An invocation
// still in flight on the dead session ends as it did before — nothing
// can poll for it, so the watchdog kills it.
func TestDeadSessionIsLoggedOutOfTheAgent(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache = true
			cfg.ProxyLifetime = time.Hour
			cfg.InvocationTimeout = 2 * time.Hour
			cfg.PollInterval = time.Minute // sixty polls, not 1800, until the proxy ends
		})
		f.uploadDemo(t)
		if _, err := f.ons.UploadAndGenerate("alice", "long.gsh", "", nil, []byte("compute 90m\necho late\n")); err != nil {
			t.Fatal(err)
		}
		inFlight, err := f.ons.Invoke("LongService", nil)
		if err != nil {
			t.Fatal(err)
		}
		// The cache goes on believing in the session past the proxy's end.
		f.ons.mu.Lock()
		dead := f.ons.sessions["alice"].id
		f.ons.sessions["alice"].expiresAt = time.Now().Add(24 * time.Hour)
		f.ons.mu.Unlock()
		if dead != inFlight.sessionID || f.parts.Agent.SessionCount() != 1 {
			t.Fatalf("cached session %q, invocation's %q, %d agent sessions", dead, inFlight.sessionID, f.parts.Agent.SessionCount())
		}
		time.Sleep(time.Hour + time.Minute) // the proxy runs out under the job
		if _, err := f.parts.Agent.Session(dead); !errors.Is(err, cyberaide.ErrExpired) {
			t.Fatalf("the cached session an hour on: %v, want it expired", err)
		}
		if out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "2"}); err != nil {
			t.Fatalf("invocation on an expired cached session failed (%q): %v", out, err)
		}
		f.ons.mu.Lock()
		fresh := f.ons.sessions["alice"].id
		f.ons.mu.Unlock()
		if fresh == dead {
			t.Fatalf("dead session %q still cached", dead)
		}
		if _, err := f.parts.Agent.Session(dead); !errors.Is(err, cyberaide.ErrNoSession) {
			t.Fatalf("dead session still in the agent's table: %v", err)
		}
		if n := f.parts.Agent.SessionCount(); n != 1 {
			t.Fatalf("%d agent sessions, want the fresh one alone", n)
		}
		<-inFlight.DoneChan()
		if inFlight.State() != InvKilled || !strings.Contains(inFlight.Message(), "watchdog") {
			t.Fatalf("in-flight invocation ended %s %q, want the watchdog's kill", inFlight.State(), inFlight.Message())
		}
	})
}

func TestStatsTTLServesCachedSnapshot(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		ttl := 10 * time.Minute
		f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = ttl })
		auth := UserAuth{MyProxyUser: "alice", Passphrase: "pw"}
		sessID, _, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ons.pickSites(sessID, heldExecutable(f.ons, "MontecarloService", nil), trace.SpanContext{}, nil); err != nil {
			t.Fatal(err)
		}
		// Plant a sentinel snapshot: while the TTL holds, pickSites must use
		// it rather than ask the gatekeeper again.
		f.ons.mu.Lock()
		f.ons.stats = []gridsim.SiteStats{{Name: "siteB", Slots: 8, FreeSlots: 8}}
		f.ons.statsAt = time.Now()
		f.ons.mu.Unlock()
		sites, err := f.ons.pickSites(sessID, heldExecutable(f.ons, "MontecarloService", nil), trace.SpanContext{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sites) != 1 || sites[0] != "siteB" {
			t.Fatalf("pickSites ignored cached snapshot: %v", sites)
		}
		// Expire the snapshot: the next call refetches both sites.
		f.ons.mu.Lock()
		f.ons.statsAt = time.Now().Add(-2 * ttl)
		f.ons.mu.Unlock()
		sites, err = f.ons.pickSites(sessID, heldExecutable(f.ons, "MontecarloService", nil), trace.SpanContext{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sites) != 2 {
			t.Fatalf("expired snapshot not refreshed: %v", sites)
		}
	})
}

func TestConcurrentWarmInvocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache = true
			cfg.StatsTTL = 30 * time.Second
		})
		f.uploadDemo(t)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "7"}); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if n := f.parts.Agent.SessionCount(); n < 1 || n > workers {
			t.Fatalf("agent sessions %d", n)
		}
	})
}

func TestInvocationPruning(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.ons.retention = 2
		f.uploadDemo(t)
		var tickets []string
		for i := 0; i < 4; i++ {
			inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
			if err != nil {
				t.Fatal(err)
			}
			<-inv.DoneChan()
			if inv.State() != InvDone {
				t.Fatalf("invocation %d ended %s: %s", i, inv.State(), inv.Message())
			}
			tickets = append(tickets, inv.Ticket)
		}
		waitFor(t, func() bool { return len(f.ons.Invocations()) == 2 })
		// The two oldest tickets are pruned, the two newest still resolve.
		for _, old := range tickets[:2] {
			if _, err := f.ons.Invocation(old); !errors.Is(err, ErrNoTicket) {
				t.Fatalf("pruned ticket %s resolved: %v", old, err)
			}
		}
		for _, fresh := range tickets[2:] {
			if _, err := f.ons.Invocation(fresh); err != nil {
				t.Fatalf("retained ticket %s: %v", fresh, err)
			}
		}
		// Monitoring still tallies all four through the retained counters.
		if got := f.ons.Monitoring().Invocations[string(InvDone)]; got != 4 {
			t.Fatalf("monitoring DONE = %d, want 4", got)
		}
	})
}

func TestReplicaSource(t *testing.T) {
	staged := map[string]map[string]string{
		"SvcService":   {"siteC": "sum1", "siteA": "sum2"},
		"OtherService": {"siteZ": "sum3"},
	}
	if got := replicaSource(staged["SvcService"]); got != "siteA" {
		t.Fatalf("replicaSource = %q, want deterministic smallest site siteA", got)
	}
	// An unstaged service, and one whose name merely prefixes a staged one.
	for _, svc := range []string{"MissingService", "Svc"} {
		if got := replicaSource(staged[svc]); got != "" {
			t.Fatalf("replicaSource(%s) = %q", svc, got)
		}
	}
}
