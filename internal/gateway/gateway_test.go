package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tenant"
)

// TestFleetRoutingSticksAndMerges publishes six services through the
// front door and invokes each, then sends one row of each Kind: keyed
// routing sticks to the primary, scatters merge the fleet, and an
// affinity-free request (KindAny) goes round-robin over the fleet. The
// last one's turn falls to a dead member, and it moves past it.
func TestFleetRoutingSticksAndMerges(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 3, nil)
		spread := make(map[int]bool)
		var ticket string
		for i, name := range f.publishAll(t, "job", 6, "echo v=${x}\n") {
			spread[f.PrimaryFor(name)] = true
			ticket = f.invoke(t, 1, name, fmt.Sprint(i), fmt.Sprintf("v=%d\n", i))
		}
		if len(spread) < 2 {
			t.Fatalf("6 services landed on %d shard(s); ring is not spreading", len(spread))
		}

		ctype, form := appliancetest.UploadForm("more.gsh", "echo m\n")
		routes := []row{
			// The merged /api/services listing covers the whole fleet, sorted.
			read("/api/services", func(t testing.TB, body string) {
				var services []core.ExecutableInfo
				json.Unmarshal([]byte(body), &services)
				var names []string
				for _, info := range services {
					names = append(names, info.ServiceName)
				}
				if got := strings.Join(names, " "); got != "Job0Service Job1Service Job2Service Job3Service Job4Service Job5Service" {
					t.Fatalf("merged listing %s: want the six services, sorted", got)
				}
			}),
			// /api/stats carries the gateway block plus one doc per shard.
			read("/api/stats", func(t testing.TB, body string) {
				var doc statsDoc
				json.Unmarshal([]byte(body), &doc)
				if doc.Gateway.RingMembers != 3 || len(doc.Gateway.Upstreams) != 3 || len(doc.Fleet) != 3 {
					t.Fatalf("stats doc %+v", doc)
				}
				for _, sh := range doc.Fleet {
					if sh.State != "healthy" || len(sh.Stats) == 0 {
						t.Fatalf("shard doc %+v", sh)
					}
				}
			}),
			{Method: http.MethodPost, Path: "/upload", Type: ctype, Body: form, Status: http.StatusOK, Want: "MoreService"},
			{Method: http.MethodPost, Path: "/api/invoke", Type: "application/json", Body: `{"service":"Job1Service"}`, Status: http.StatusOK, Want: "ticket"},
			get("/api/service?name=Job1Service", http.StatusOK, "Job1Service"),
			get("/services/Job1Service?wsdl", http.StatusOK, "definitions"),
			get("/api/status?ticket="+ticket, http.StatusOK, "DONE"),
			stockAudit,
			get("/api/registry", http.StatusOK, "MoreService"),
			get("/", http.StatusOK, "Cyberaide onServe"),
			get("/upload", http.StatusMethodNotAllowed, ""),
			get("/api/status?ticket=inv-000001-0123456789ab", http.StatusNotFound, `"code":"not_found"`),
			unroutable,
			{Method: http.MethodPost, Path: "/api/delete?name=MoreService", Status: http.StatusOK},
		}
		kinds := map[Kind]bool{}
		for _, r := range routes {
			path, query, _ := strings.Cut(r.Path, "?")
			name := "refused"
			if rt, err := DecodeRoute(r.Method, path, query, r.Type, []byte(r.Body)); err == nil {
				name, kinds[rt.Kind] = rt.Kind.String(), true
			}
			t.Run(name, func(t *testing.T) { f.Serve(t, r) })
		}
		for k := KindAny; k <= KindRegistry; k++ {
			if !kinds[k] {
				t.Errorf("no row routes as %s", k)
			}
		}

		// With every upstream healthy, all keyed routing is sticky.
		if st := f.GatewayStats(); st.Routed == 0 || st.StickyHits != st.Routed || st.TicketRoutes == 0 {
			t.Fatalf("routed %d, sticky %d, ticket routes %d: want every keyed route sticky, and tickets routed", st.Routed, st.StickyHits, st.TicketRoutes)
		}
		dead := f.members[int(f.rr.Load())%len(f.members)]
		must(t, f.Kill(dead.idx))
		before := countsOf(dead)
		f.Serve(t, get("/", http.StatusOK, "Cyberaide onServe"))
		if up := countsOf(dead); up.Proxied != before.Proxied+1 || up.ProxyErrors != before.ProxyErrors+1 {
			t.Fatalf("the dead member's turn: %+v, then %+v; want one failed hop", before, up)
		}
		// A scatter still answers, the dead member's doc without its stats.
		f.Serve(t, read("/api/stats", func(t testing.TB, body string) {
			var doc statsDoc
			json.Unmarshal([]byte(body), &doc)
			for i, sh := range doc.Fleet {
				if (len(sh.Stats) == 0) != (i == dead.idx) {
					t.Errorf("shard %d's doc %s: want stats from the live members alone", i, sh.Stats)
				}
			}
		}))
	})
}

// stockAudit is /api/audit where no member enforces tenancy: the stock
// 404 page, as a lone appliance answers.
var stockAudit = row{Method: http.MethodGet, Path: "/api/audit", Status: http.StatusNotFound, Check: func(t testing.TB, reply appliancetest.Reply) {
	if reply.Body != "404 page not found\n" {
		t.Errorf("audit body %q, want the stock NotFound page", reply.Body)
	}
}}

// unroutable is a request the gateway cannot route: its own 400, in the
// portal's envelope.
var unroutable = row{Method: http.MethodPost, Path: "/api/invoke", Type: "application/json", Body: "{not json",
	Status: http.StatusBadRequest, Want: `"code":"bad_request"`}

// TestFleetAuditOffMatchesStock404: with no shard enforcing tenancy, the
// fleet's /api/audit answers the stock 404 page.
func TestFleetAuditOffMatchesStock404(t *testing.T) {
	bubble.Test(t, func(t *testing.T) { newFleet(t, 2, nil).Serve(t, stockAudit) })
}

// TestGatewayOwnEnvelopeCarriesCode: the gateway's own routing failures
// answer in the portal's {"error","code"} envelope.
func TestGatewayOwnEnvelopeCarriesCode(t *testing.T) {
	bubble.Test(t, func(t *testing.T) { newFleet(t, 1, nil).Serve(t, unroutable) })
}

// TestServiceRoutesByNameAlone: the ring key is the service name, so the
// gateway needs no record of a service to find its shard. One published
// past the gateway, on its shard's own door, is invoked, described and
// served its WSDL through the gateway: sticky, with no catalog replay.
func TestServiceRoutesByNameAlone(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 4, nil)
		service, err := core.ServiceNameFor("outside.gsh")
		must(t, err)
		publish(t, f.door(f.PrimaryFor(service)), "outside.gsh", "echo d=${x}\n")
		f.invoke(t, 1, service, "4", "d=4\n")
		f.Serve(t, get("/api/service?name="+service, http.StatusOK, ""), get("/services/"+service+"?wsdl", http.StatusOK, ""))
		if st := f.GatewayStats(); st.Redeploys != 0 || st.Routed != 3 || st.StickyHits != st.Routed {
			t.Fatalf("routed %d, sticky %d, redeploys %d: want 3 sticky routes and no replay", st.Routed, st.StickyHits, st.Redeploys)
		}
	})
}

// TestFleetOfOneMatchesSingleAppliance: a gateway fronting one appliance
// answers the portal API byte for byte as the appliance itself does.
func TestFleetOfOneMatchesSingleAppliance(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 1, func(cfg *Config) { cfg.Trace = nil })
		publish(t, f.front, "solo.gsh", "echo s=${x}\n")
		for _, path := range []string{"/api/services", "/api/service?name=SoloService", "/registry", "/registry?pattern=Solo%25"} {
			if viaGW, direct := f.Do(t, get(path, 0, "")).Body, f.Do(t, get(f.Fleet()[0].BaseURL+path, 0, "")).Body; viaGW != direct {
				t.Fatalf("%s differs through the gateway:\n gw: %s\napp: %s", path, viaGW, direct)
			}
		}
	})
}

// TestFleetKillFailoverAndRejoin: a killed primary's service fails over to
// its successor; once ejected and rejoined, the primary is home again.
func TestFleetKillFailoverAndRejoin(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 3, func(cfg *Config) { cfg.FailThreshold = 2 })
		name := publish(t, f.front, "resilient.gsh", "echo r=${x}\n")
		victim := f.PrimaryFor(name)
		f.invoke(t, 1, name, "1", "r=1\n") // warm, on the healthy primary

		// Kill the primary. The client's re-issue hits a clean dial error,
		// fails over to the ring successor, which 404s until the gateway
		// replays the catalogued upload onto it.
		must(t, f.Kill(victim))
		f.invoke(t, 5, name, "2", "r=2\n")
		if st := f.GatewayStats(); st.Retried == 0 || st.Redeploys == 0 {
			t.Fatalf("expected a retry and a catalog replay on the successor: %+v", st)
		}

		// Requests eject the corpse; then the shard rejoins, readmitted at
		// once, its keys route home again, and the first of them there
		// replays the catalogued upload.
		f.ejectPrimary(t, name)
		must(t, f.Rejoin(victim))
		before := f.GatewayStats()
		if before.Recoveries == 0 || before.Upstreams[victim].State != "healthy" {
			t.Fatalf("rejoined shard not readmitted: %+v", before)
		}
		f.invoke(t, 1, name, "3", "r=3\n")
		if after := f.GatewayStats(); after.StickyHits <= before.StickyHits {
			t.Fatalf("post-rejoin invoke was not sticky: %+v -> %+v", before, after)
		}
	})
}

// TestFleetConcurrentBurstSurvivesKillAndRejoin is the race-gate
// workhorse: a concurrent burst runs through the gateway while one
// appliance is killed and later rejoins. Every call completes (one that
// fails re-issues once the fleet has healed), none twice: each has a
// ticket of its own.
func TestFleetConcurrentBurstSurvivesKillAndRejoin(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 3, func(cfg *Config) { cfg.FailThreshold = 2 })
		services := f.publishAll(t, "burst", 3, "echo b=${x}\n")
		const calls, killAfter = 18, 6
		tickets, errs := make([]string, calls), make([]error, calls)
		completed := make(chan struct{}, calls) // one token per completed call
		healed := make(chan struct{})           // closed once the victim is back
		var wg sync.WaitGroup
		for i := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for attempt := range 8 {
					if attempt > 0 {
						<-healed
					}
					var out string
					if tickets[i], out, errs[i] = run(f.front, services[i%len(services)], fmt.Sprint(i)); errs[i] == nil {
						if out != fmt.Sprintf("b=%d\n", i) {
							errs[i] = fmt.Errorf("call %d: output %q", i, out)
						}
						completed <- struct{}{}
						return
					}
				}
				errs[i] = fmt.Errorf("call %d never completed: %v", i, errs[i])
			}()
		}

		// Mid-burst — a third of the calls done, the rest in flight — kill one
		// shard, and rejoin it once requests have ejected it.
		for range killAfter {
			<-completed
		}
		f.bounce(t, services[0])
		close(healed)
		wg.Wait()
		must(t, errors.Join(errs...))
		if slices.Sort(tickets); len(slices.Compact(tickets)) != calls {
			t.Fatalf("%d distinct tickets for %d completed calls", len(slices.Compact(tickets)), calls)
		}
		if st := f.GatewayStats(); st.Routed == 0 {
			t.Fatalf("stats %+v", st)
		}
	})
}

// TestRegistryPageGathersTheFleet: the gateway's /registry is its
// members' listings, gathered when asked — a service published past the
// gateway is listed at once, the caller's pattern filters on every
// member, and a service deleted through the gateway is gone from it.
func TestRegistryPageGathersTheFleet(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 2, nil)
		publish(t, f.front, "listed.gsh", "echo ok\n")
		publish(t, f.door(1-f.PrimaryFor("ListedService")), "direct.gsh", "echo ok\n")
		page := func(query, want string, listed ...string) row {
			return row{Method: http.MethodGet, Path: "/registry" + query, Status: http.StatusOK, Want: want, Check: func(t testing.TB, reply appliancetest.Reply) {
				for _, name := range []string{"ListedService", "DirectService"} {
					if strings.Contains(reply.Body, "<td>"+name+"</td>") != slices.Contains(listed, name) {
						t.Errorf("/registry%s lists %s against %v:\n%s", query, name, listed, reply.Body)
					}
				}
			}}
		}
		f.Serve(t, page("", "2 published service(s)", "ListedService", "DirectService"),
			page("?pattern=Direct%25", "1 published service(s)", "DirectService"),
			row{Method: http.MethodPost, Path: "/api/delete?name=ListedService", Status: http.StatusOK},
			page("", "1 published service(s)", "DirectService"))
	})
}

// TestRejoinUploadsNothingUntilAsked: a rejoined shard is filled on
// demand. Rejoin replays none of the catalogued services onto the fresh
// appliance; the first request for one the shard owns replays that one,
// through the same 404 path failover takes.
func TestRejoinUploadsNothingUntilAsked(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 3, nil)
		services := f.publishAll(t, "lazy", 6, "echo l=${x}\n")
		victim := f.PrimaryFor(services[0])
		must(t, f.Kill(victim))
		must(t, f.Rejoin(victim))
		fresh := f.Fleet()[victim].OnServe
		if infos, err := fresh.Services(); err != nil || len(infos) != 0 {
			t.Fatalf("the rejoined shard holds %d services (%v), want 0", len(infos), err)
		}
		before := f.GatewayStats().Redeploys
		f.invoke(t, 1, services[0], "1", "l=1\n")
		if infos, err := fresh.Services(); err != nil || len(infos) != 1 || infos[0].ServiceName != services[0] {
			t.Fatalf("the rejoined shard holds %+v (%v), want %s alone", infos, err, services[0])
		}
		if got := f.GatewayStats().Redeploys - before; got != 1 {
			t.Fatalf("%d replays for one invocation, want 1", got)
		}
	})
}

// TestDeleteAfterRejoinSweepsTheFleet: a delete that is the first request
// for a service to reach its rejoined owner replays it there, is judged by
// the owner, and sweeps the copy failover left on the successor: the
// service is gone from every member and the listing, and stays gone.
func TestDeleteAfterRejoinSweepsTheFleet(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 3, nil)
		name := publish(t, f.front, "doomed.gsh", "echo d=${x}\n")
		f.bounce(t, name) // its reads replay the service onto the successor
		if n := f.holders(t, name); n != 1 {
			t.Fatalf("%d members hold %s before the delete, want the successor alone", n, name)
		}
		must(t, f.front.Delete(name))
		if n := f.holders(t, name); n != 0 {
			t.Fatalf("%d members still hold %s after the delete", n, name)
		}
		f.Serve(t, read("/api/services", func(t testing.TB, body string) {
			if strings.Contains(body, name) {
				t.Fatalf("the listing still has %s", name)
			}
		}))
		before := f.GatewayStats().Redeploys
		if _, _, err := run(f.front, name, ""); err == nil || !strings.Contains(err.Error(), "status 404") {
			t.Fatalf("invoke of the deleted service: %v, want a 404", err)
		}
		if got := f.GatewayStats().Redeploys - before; got != 0 || f.holders(t, name) != 0 {
			t.Fatalf("an invoke of the deleted service replayed it %d times", got)
		}
	})
}

// TestGatewayRunsNoBackgroundGoroutine: between requests the gateway runs
// its Serve loop alone, and Shutdown (at cleanup) leaves nothing running.
func TestGatewayRunsNoBackgroundGoroutine(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 4, nil)
		f.Serve(t, get("/api/stats", http.StatusOK, "")) // a request served: Serve is running
		bubble.Wait()                                    // and the goroutines that served it are gone
		var stacks strings.Builder
		pprof.Lookup("goroutine").WriteTo(&stacks, 2)
		serve, other := 0, 0
		for _, g := range strings.Split(stacks.String(), "\n\n") {
			switch {
			case !strings.Contains(g, "created by repro/internal/gateway."):
			case strings.Contains(g, "net/http.(*Server).Serve(") || strings.Contains(g, "gateway.Boot.func"):
				serve++
			default:
				other++
				t.Logf("gateway goroutine:\n%s", g)
			}
		}
		if serve == 0 || other != 0 {
			t.Fatalf("the gateway runs %d Serve and %d other goroutines, want 1 and 0", serve, other)
		}
	})
}

// fleetTenancyConfig has one owner, acme, whose key is acme-secret.
func fleetTenancyConfig() *tenant.Config {
	return &tenant.Config{Owners: []tenant.OwnerConfig{{Name: "acme", Weight: 1, MaxInFlight: 8}},
		Keys: []tenant.KeyConfig{{Key: "acme-secret", Owner: "acme"}}, Limits: tenant.LimitsConfig{MaxInFlight: 16}}
}

// TestFleetTenancyForwardsKeysAndMerges proves per-shard enforcement
// through the gateway: the X-Grid-Key header rides the proxy hop, shard
// denials pass through verbatim, and /api/stats and /api/audit present
// one fleet-wide tenant view.
func TestFleetTenancyForwardsKeysAndMerges(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 2, func(cfg *Config) { cfg.Appliance.Tenancy = fleetTenancyConfig() })
		ctype, form := appliancetest.UploadForm("tenantfleet.gsh", "compute 1s\necho ok\n")
		f.Serve(t,
			// An unauthenticated upload is denied by the owning shard; the
			// gateway passes the upstream envelope through untouched.
			row{Method: http.MethodPost, Path: "/upload", Type: ctype, Body: form, Status: http.StatusUnauthorized, Want: `"code":"unauthorized"`},
			// With the key the same request sails through the proxy hop.
			row{Method: http.MethodPost, Path: "/upload", Type: ctype, Body: form, Key: "acme-secret", Status: http.StatusOK},
			row{Method: http.MethodPost, Path: "/api/invoke", Type: "application/json", Body: `{"service":"TenantfleetService","args":{"x":"1"}}`,
				Key: "acme-secret", Status: http.StatusOK},
			// Fleet stats carry one merged tenant block: counters summed over
			// the shards that enforced anything.
			row{Method: http.MethodGet, Path: "/api/stats", Status: http.StatusOK, Check: func(t testing.TB, reply appliancetest.Reply) {
				var stats statsDoc
				if err := json.Unmarshal([]byte(reply.Body), &stats); err != nil || stats.Tenant == nil {
					t.Fatalf("fleet stats missing merged tenant block (%v): %s", err, reply.Body)
				}
				if stats.Tenant.Admitted < 2 || stats.Tenant.Denied < 1 {
					t.Fatalf("merged admitted %d, denied %d; want >= 2 (upload + invoke) and >= 1", stats.Tenant.Admitted, stats.Tenant.Denied)
				}
			}},
			// The fleet audit view merges shard logs newest-first.
			row{Method: http.MethodGet, Path: "/api/audit?n=100", Status: http.StatusOK, Check: func(t testing.TB, reply appliancetest.Reply) {
				var audit struct{ Records []tenant.Record }
				must(t, json.Unmarshal([]byte(reply.Body), &audit))
				okInvokes, denials := 0, 0
				for i, rec := range audit.Records {
					if i > 0 && rec.Time.After(audit.Records[i-1].Time) {
						t.Fatalf("audit records not newest-first at %d", i)
					}
					switch {
					case rec.Outcome == "ok" && rec.Verb == "invoke":
						okInvokes++
					case rec.Outcome == "denied":
						denials++
					}
				}
				if okInvokes != 1 || denials != 1 {
					t.Fatalf("fleet audit ok-invokes=%d denials=%d, want 1/1 (records: %+v)", okInvokes, denials, audit.Records)
				}
			}})
	})
}

// TestFleetTenancyFailoverReplaysAsTheUploader: a catalog replay is the
// upload it replays — the uploader's key rides with it. Without the key a
// shard with tenancy on refuses the replay 401, so neither the failover
// redeploy nor Rejoin could work on such a fleet.
func TestFleetTenancyFailoverReplaysAsTheUploader(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 2, func(cfg *Config) { cfg.Appliance.Tenancy, cfg.FailThreshold = fleetTenancyConfig(), 2 })
		f.front.Key = "acme-secret"
		name := publish(t, f.front, "failover.gsh", "echo f=${x}\n")
		victim := f.PrimaryFor(name)
		must(t, f.Kill(victim))
		f.invoke(t, 5, name, "1", "f=1\n")
		if st := f.GatewayStats(); st.Redeploys < 1 {
			t.Fatalf("no catalog replay onto the successor: %+v", st)
		}
		replayed := false
		for _, rec := range f.Fleet()[1-victim].OnServe.Tenancy().Audit("", 100) {
			if rec.Code == "unauthorized" {
				t.Errorf("the successor refused a %s as unauthorized: the replay showed no key", rec.Verb)
			}
			replayed = replayed || (rec.Verb == "upload" && rec.Owner == "acme" && rec.Outcome == "ok")
		}
		if !replayed {
			t.Error("the successor's audit does not show the replayed upload under the uploader's owner")
		}
		must(t, f.Rejoin(victim))
	})
}

// keyPaths adds every key path of a JSON value under prefix to set: an
// object's key is parent.key, an array's elements share parent[], and a
// key of a map keyed by data (owners, invocations) reads as *.
func keyPaths(set map[string]bool, prefix string, v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			if strings.HasSuffix(prefix, "owners") || strings.HasSuffix(prefix, "invocations") {
				k = "*"
			}
			if prefix != "" {
				k = prefix + "." + k
			}
			set[k] = true
			keyPaths(set, k, e)
		}
	case []any:
		for _, e := range v {
			keyPaths(set, prefix+"[]", e)
		}
	}
}

// statsPaths are the sorted key paths of the /api/stats document at base,
// each after doc.
func statsPaths(t *testing.T, f *fleet, base, doc string) []string {
	t.Helper()
	var v any
	must(t, json.Unmarshal([]byte(f.Do(t, get(base+"/api/stats", 0, "")).Body), &v))
	set := map[string]bool{}
	keyPaths(set, "", v)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, doc+" "+p)
	}
	slices.Sort(paths)
	return paths
}

// TestStatsDocumentShape pins the key paths of /api/stats, which
// cmd/bench, onserve-cli and portal.Client decode by field name: an
// appliance's with tenancy off and on, and the gateway's over a
// tenancy-on fleet.
func TestStatsDocumentShape(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Recorded untraced: a traced appliance adds its trace block.
		off := newFleet(t, 1, func(cfg *Config) { cfg.Appliance.Trace = nil })
		on := newFleet(t, 2, func(cfg *Config) { cfg.Appliance.Trace, cfg.Appliance.Tenancy = nil, fleetTenancyConfig() })
		got := slices.Concat(statsPaths(t, off, off.Fleet()[0].BaseURL, "appliance"),
			statsPaths(t, on, on.Fleet()[0].BaseURL, "appliance+tenancy"), statsPaths(t, on, on.BaseURL, "gateway"))
		raw, err := os.ReadFile("testdata/stats-paths.txt")
		must(t, err)
		want := strings.Split(strings.TrimSpace(string(raw)), "\n")
		for _, p := range got {
			if !slices.Contains(want, p) {
				t.Errorf("new key path %s", p)
			}
		}
		for _, p := range want {
			if !slices.Contains(got, p) {
				t.Errorf("lost key path %s", p)
			}
		}
	})
}

// TestListenersDropSlowClients: every listener — grid, appliance, gateway —
// closes a connection that sends half a request line and stalls.
func TestListenersDropSlowClients(t *testing.T) {
	stock := netsim.ReadHeaderTimeout
	netsim.ReadHeaderTimeout = 50 * time.Millisecond
	t.Cleanup(func() { netsim.ReadHeaderTimeout = stock })
	bubble.Run(func() {
		for _, name := range []string{"gridenv", "appliance", "gateway"} {
			t.Run(name, func(t *testing.T) {
				f := newFleet(t, 1, nil)
				url := map[string]string{"gridenv": f.Env.GramURL, "appliance": f.Fleet()[0].BaseURL, "gateway": f.BaseURL}[name]
				conn, err := f.Net.DialContext(context.Background(), "tcp", strings.TrimPrefix(url, "http://"))
				must(t, err)
				defer conn.Close()
				_, err = conn.Write([]byte("GET /api/st"))
				must(t, err)
				// Our own deadline only bounds the test: the server must hang
				// up (with or without an error reply) long before it.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if reply, err := io.ReadAll(conn); err != nil {
					t.Fatalf("stalled request line not dropped by the server: %v after %q", err, reply)
				}
			})
		}
	})
}
