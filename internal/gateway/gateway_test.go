package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/uddi"
)

type fleetWorld struct {
	gw  *Gateway
	env *gridenv.Env
}

// pipes is the in-process network every fleet in these tests runs on —
// grid, shards and front door — and web a caller's client on it. A fleet
// closes web's idle connections as it goes: each pipe belongs to the
// bubble of the test that dialled it.
var (
	pipes = netsim.NewNet()
	web   = &http.Client{Transport: &http.Transport{DialContext: pipes.DialContext}}
)

// bootFleet boots one simulated grid plus a gateway fronting n
// appliances over pipes: call it in a bubble.
func bootFleet(t *testing.T, n int, mutate func(*Config)) *fleetWorld {
	t.Helper()
	t.Cleanup(web.CloseIdleConnections)
	env, err := gridenv.Start(gridenv.Options{
		Sites: []gridsim.SiteConfig{
			{Name: "siteA", Nodes: 2, CoresPerNode: 8},
			{Name: "siteB", Nodes: 2, CoresPerNode: 8},
		},
		Net: pipes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Fleet: n,
		Appliance: appliance.Config{
			Endpoints:         env.Endpoints(),
			Cost:              metrics.DefaultCost(),
			PollInterval:      2 * time.Second,
			InvocationTimeout: time.Hour,
			GridDial:          pipes.DialContext,
		},
		HalfOpenAfter: 20 * time.Minute,
		Net:           pipes,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := Boot(cfg, pipes.Listen())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Shutdown() })
	gw.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	return &fleetWorld{gw: gw, env: env}
}

func (w *fleetWorld) upload(t *testing.T, base, filename, program string) uddi.Record {
	t.Helper()
	ct, body := multipartUploadProgram(t, filename, "alice", program)
	resp, err := web.Post(base+"/upload", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload %s: status %d: %s", filename, resp.StatusCode, raw)
	}
	var rec uddi.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("upload reply %q: %v", raw, err)
	}
	return rec
}

func multipartUploadProgram(t testing.TB, filename, user, program string) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", filename)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(fw, program)
	mw.WriteField("user", user)
	mw.WriteField("description", "fleet test")
	mw.Close()
	return mw.FormDataContentType(), buf.Bytes()
}

// invokeWait drives one invocation end to end through base, returning
// the ticket and output. A non-200 anywhere is returned as err with the
// body, so callers can re-issue.
func invokeWait(base, service string, args map[string]string) (ticket, output string, err error) {
	payload, _ := json.Marshal(map[string]any{"service": service, "args": args})
	resp, err := web.Post(base+"/api/invoke", "application/json", bytes.NewReader(payload))
	if err != nil {
		return "", "", err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("invoke: status %d: %s", resp.StatusCode, raw)
	}
	var inv struct {
		Ticket string `json:"ticket"`
	}
	if err := json.Unmarshal(raw, &inv); err != nil || inv.Ticket == "" {
		return "", "", fmt.Errorf("invoke reply %q: %v", raw, err)
	}
	resp, err = web.Get(base + "/api/wait?ticket=" + inv.Ticket)
	if err != nil {
		return inv.Ticket, "", err
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return inv.Ticket, "", fmt.Errorf("wait: status %d: %s", resp.StatusCode, raw)
	}
	var done struct {
		State  string `json:"state"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal(raw, &done); err != nil {
		return inv.Ticket, "", err
	}
	if done.State != "DONE" {
		return inv.Ticket, done.Output, fmt.Errorf("wait: state %s", done.State)
	}
	return inv.Ticket, done.Output, nil
}

// gatewayStats reads the gateway block of the front door's /api/stats.
func gatewayStats(t *testing.T, gw *Gateway) Stats {
	t.Helper()
	resp, err := web.Get(gw.BaseURL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Gateway Stats `json:"gateway"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Gateway
}

func TestFleetRoutingSticksAndMerges(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 3, nil)

		// Publish six services through the front door and invoke each one.
		spread := make(map[int]bool)
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("job%d.gsh", i)
			rec := w.upload(t, w.gw.BaseURL, name, "echo v=${x}\n")
			want := fmt.Sprintf("Job%dService", i)
			if rec.Name != want {
				t.Fatalf("published %q, want %q", rec.Name, want)
			}
			spread[w.gw.PrimaryFor(rec.Name)] = true
			_, out, err := invokeWait(w.gw.BaseURL, rec.Name, map[string]string{"x": fmt.Sprint(i)})
			if err != nil {
				t.Fatal(err)
			}
			if out != fmt.Sprintf("v=%d\n", i) {
				t.Fatalf("output %q", out)
			}
		}
		if len(spread) < 2 {
			t.Fatalf("6 services landed on %d shard(s); ring is not spreading", len(spread))
		}

		// With every upstream healthy, all keyed routing is sticky.
		st := gatewayStats(t, w.gw)
		if st.Routed == 0 || st.StickyHits != st.Routed {
			t.Fatalf("routed %d sticky %d: expected 100%% stickiness on a healthy fleet", st.Routed, st.StickyHits)
		}
		if st.RingMembers != 3 || len(st.Upstreams) != 3 {
			t.Fatalf("stats %+v", st)
		}
		if st.TicketRoutes == 0 {
			t.Fatal("wait calls did not use learned ticket routes")
		}

		// The merged /api/services listing covers the whole fleet, sorted.
		resp, err := web.Get(w.gw.BaseURL + "/api/services")
		if err != nil {
			t.Fatal(err)
		}
		var services []core.ExecutableInfo
		json.NewDecoder(resp.Body).Decode(&services)
		resp.Body.Close()
		if len(services) != 6 {
			t.Fatalf("merged listing has %d services", len(services))
		}
		for i := 1; i < len(services); i++ {
			if services[i-1].ServiceName >= services[i].ServiceName {
				t.Fatalf("merged listing not sorted: %q then %q", services[i-1].ServiceName, services[i].ServiceName)
			}
		}

		// /api/stats carries the gateway block plus one doc per shard.
		resp, err = web.Get(w.gw.BaseURL + "/api/stats")
		if err != nil {
			t.Fatal(err)
		}
		var statsDoc struct {
			Gateway Stats `json:"gateway"`
			Fleet   []struct {
				ID    string          `json:"id"`
				State string          `json:"state"`
				Stats json.RawMessage `json:"stats"`
			} `json:"fleet"`
		}
		json.NewDecoder(resp.Body).Decode(&statsDoc)
		resp.Body.Close()
		if statsDoc.Gateway.RingMembers != 3 || len(statsDoc.Fleet) != 3 {
			t.Fatalf("stats doc %+v", statsDoc)
		}
		for _, sh := range statsDoc.Fleet {
			if sh.State != "healthy" || len(sh.Stats) == 0 {
				t.Fatalf("shard doc %+v", sh)
			}
		}
	})
}

// TestServiceRoutesByNameAlone: the ring key is the service name, so the
// gateway needs no record of a service — not its upload, not its owner —
// to find the shard that holds it. A service published on its shard's own
// door, past the gateway, is invoked, described and served its WSDL
// through the gateway on the first try: sticky, with no catalog replay.
// A key that needs the owner sends it, before the gateway has learnt the
// owner, to whichever shard an empty owner hashes to: for this name, not
// the one that holds it.
func TestServiceRoutesByNameAlone(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 4, nil)
		service, err := core.ServiceNameFor("outside.gsh")
		if err != nil {
			t.Fatal(err)
		}
		home := w.gw.Fleet()[w.gw.PrimaryFor(service)]
		if rec := w.upload(t, home.BaseURL, "outside.gsh", "echo d=${x}\n"); rec.Name != service {
			t.Fatalf("published %q, want %q", rec.Name, service)
		}
		if _, out, err := invokeWait(w.gw.BaseURL, service, map[string]string{"x": "4"}); err != nil || out != "d=4\n" {
			t.Fatalf("invoke through the gateway: %q %v", out, err)
		}
		for _, path := range []string{"/api/service?name=" + service, "/services/" + service + "?wsdl"} {
			resp, err := web.Get(w.gw.BaseURL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
		}
		if st := gatewayStats(t, w.gw); st.Redeploys != 0 || st.Routed != 3 || st.StickyHits != st.Routed {
			t.Fatalf("routed %d, sticky %d, redeploys %d: want 3 sticky routes and no replay", st.Routed, st.StickyHits, st.Redeploys)
		}
	})
}

// TestFleetOfOneMatchesSingleAppliance pins the opt-in contract: a
// gateway fronting one appliance returns byte-identical portal API
// bodies to the appliance itself.
func TestFleetOfOneMatchesSingleAppliance(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 1, nil)
		w.upload(t, w.gw.BaseURL, "solo.gsh", "echo s=${x}\n")

		direct := w.gw.Fleet()[0].BaseURL
		for _, path := range []string{"/api/services", "/api/service?name=SoloService", "/registry", "/registry?pattern=Solo%25"} {
			viaGW, err := web.Get(w.gw.BaseURL + path)
			if err != nil {
				t.Fatal(err)
			}
			gwBody, _ := io.ReadAll(viaGW.Body)
			viaGW.Body.Close()
			viaApp, err := web.Get(direct + path)
			if err != nil {
				t.Fatal(err)
			}
			appBody, _ := io.ReadAll(viaApp.Body)
			viaApp.Body.Close()
			if !bytes.Equal(gwBody, appBody) {
				t.Fatalf("%s differs through the gateway:\n gw: %s\napp: %s", path, gwBody, appBody)
			}
		}
	})
}

func TestFleetKillFailoverAndRejoin(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 3, func(cfg *Config) {
			cfg.FailThreshold = 2
		})
		rec := w.upload(t, w.gw.BaseURL, "resilient.gsh", "echo r=${x}\n")
		victim := w.gw.PrimaryFor(rec.Name)
		if victim < 0 {
			t.Fatal("no primary")
		}

		// Warm invocation on the healthy primary.
		if _, out, err := invokeWait(w.gw.BaseURL, rec.Name, map[string]string{"x": "1"}); err != nil || out != "r=1\n" {
			t.Fatalf("warm invoke: %q %v", out, err)
		}

		// Kill the primary. A first attempt may die with an ambiguous EOF on a
		// pooled connection (a write the gateway must NOT retry — it could
		// double-execute), so the client re-issues; the re-issue hits a clean
		// dial error, fails over to the ring successor, which 404s until the
		// gateway replays the catalogued upload onto it.
		if err := w.gw.Kill(victim); err != nil {
			t.Fatal(err)
		}
		var out string
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if _, out, err = invokeWait(w.gw.BaseURL, rec.Name, map[string]string{"x": "2"}); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("failover invoke: %v", err)
		}
		if out != "r=2\n" {
			t.Fatalf("failover output %q", out)
		}
		st := gatewayStats(t, w.gw)
		if st.Retried == 0 {
			t.Fatalf("expected a retry on the successor: %+v", st)
		}
		if st.Redeploys == 0 {
			t.Fatalf("expected a catalog replay on the successor: %+v", st)
		}

		// Requests eject the corpse; then the shard rejoins, readmitted at
		// once, its keys route home again, and the first of them there
		// replays the catalogued upload.
		ejectPrimary(t, w.gw, rec.Name)
		if err := w.gw.Rejoin(victim); err != nil {
			t.Fatal(err)
		}
		if st := w.gw.GatewayStats(); st.Recoveries == 0 || st.Upstreams[victim].State != "healthy" {
			t.Fatalf("rejoined shard not readmitted: %+v", st)
		}

		before := w.gw.GatewayStats()
		if _, out, err := invokeWait(w.gw.BaseURL, rec.Name, map[string]string{"x": "3"}); err != nil || out != "r=3\n" {
			t.Fatalf("post-rejoin invoke: %q %v", out, err)
		}
		after := w.gw.GatewayStats()
		if after.StickyHits <= before.StickyHits {
			t.Fatalf("post-rejoin invoke was not sticky: %+v -> %+v", before, after)
		}
	})
}

// TestFleetConcurrentBurstSurvivesKillAndRejoin is the race-gate
// workhorse: a concurrent burst runs through the gateway while one
// appliance is killed and later rejoins. Every invocation must complete
// (clients re-issue on failure) and no invocation may execute twice —
// pinned by every successful invoke returning a distinct ticket.
func TestFleetConcurrentBurstSurvivesKillAndRejoin(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 3, func(cfg *Config) {
			cfg.FailThreshold = 2
		})
		services := make([]string, 3)
		for i := range services {
			rec := w.upload(t, w.gw.BaseURL, fmt.Sprintf("burst%d.gsh", i), "echo b=${x}\n")
			services[i] = rec.Name
		}
		victim := w.gw.PrimaryFor(services[0])

		const calls, killAfter = 18, 6
		var (
			mu        sync.Mutex
			tickets   = make(map[string]string) // ticket -> caller id
			wg        sync.WaitGroup
			completed atomic.Int32
		)
		errs := make(chan error, calls)
		midBurst := make(chan struct{}) // closed when killAfter calls have completed
		for i := 0; i < calls; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				svc := services[i%len(services)]
				arg := map[string]string{"x": fmt.Sprint(i)}
				var lastErr error
				for attempt := 0; attempt < 8; attempt++ {
					ticket, out, err := invokeWait(w.gw.BaseURL, svc, arg)
					if err == nil {
						if out != fmt.Sprintf("b=%d\n", i) {
							errs <- fmt.Errorf("call %d: output %q", i, out)
							return
						}
						mu.Lock()
						if prev, dup := tickets[ticket]; dup {
							mu.Unlock()
							errs <- fmt.Errorf("ticket %s issued to both %s and call %d", ticket, prev, i)
							return
						}
						tickets[ticket] = fmt.Sprintf("call %d", i)
						mu.Unlock()
						if completed.Add(1) == killAfter {
							close(midBurst)
						}
						return
					}
					lastErr = err
					time.Sleep(time.Second) // re-issue after a backoff
				}
				errs <- fmt.Errorf("call %d never completed: %v", i, lastErr)
			}()
		}

		// Mid-burst — a third of the calls done, the rest in flight — kill one
		// shard, and rejoin it once requests have ejected it.
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-midBurst:
		case <-finished: // fewer than killAfter calls completed: errs says why
		}
		if completed.Load() >= killAfter {
			if err := w.gw.Kill(victim); err != nil {
				t.Fatal(err)
			}
			ejectPrimary(t, w.gw, services[0])
			if err := w.gw.Rejoin(victim); err != nil {
				t.Fatal(err)
			}
		}
		<-finished
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			return
		}
		mu.Lock()
		n := len(tickets)
		mu.Unlock()
		if n != calls {
			t.Fatalf("%d distinct tickets for %d completed calls", n, calls)
		}
		st := w.gw.GatewayStats()
		if st.Routed == 0 {
			t.Fatalf("stats %+v", st)
		}
		t.Logf("burst: routed=%d sticky=%d failovers=%d retried=%d redeploys=%d ejections=%d recoveries=%d",
			st.Routed, st.StickyHits, st.Failovers, st.Retried, st.Redeploys, st.Ejections, st.Recoveries)
	})
}

// TestRegistryPageGathersTheFleet: the gateway's /registry is its
// members' listings, gathered when asked — a service published past the
// gateway is listed at once, the caller's pattern filters on every
// member, and a service deleted through the gateway is gone from it.
func TestRegistryPageGathersTheFleet(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 2, nil)
		w.upload(t, w.gw.BaseURL, "listed.gsh", "echo ok\n")
		direct := w.gw.Fleet()[1-w.gw.PrimaryFor("ListedService")]
		w.upload(t, direct.BaseURL, "direct.gsh", "echo ok\n")
		page := func(query string) string {
			t.Helper()
			resp, err := web.Get(w.gw.BaseURL + "/registry" + query)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /registry%s: status %d: %s", query, resp.StatusCode, body)
			}
			return string(body)
		}
		if got := page(""); !strings.Contains(got, "2 published service(s)") ||
			!strings.Contains(got, "<td>ListedService</td>") || !strings.Contains(got, "<td>DirectService</td>") {
			t.Fatalf("the page does not list both shards' services:\n%s", got)
		}
		if got := page("?pattern=Direct%25"); !strings.Contains(got, "1 published service(s)") || !strings.Contains(got, "<td>DirectService</td>") {
			t.Fatalf("the pattern was not applied on the members:\n%s", got)
		}
		resp, err := web.Post(w.gw.BaseURL+"/api/delete?name=ListedService", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := page(""); resp.StatusCode != http.StatusOK || strings.Contains(got, "ListedService") {
			t.Fatalf("delete status %d; the page still lists the deleted service:\n%s", resp.StatusCode, got)
		}
	})
}

// TestRejoinUploadsNothingUntilAsked: a rejoined shard is filled on
// demand. Rejoin replays none of the catalogued services onto the fresh
// appliance; the first request for one the shard owns replays that one,
// through the same 404 path failover takes.
func TestRejoinUploadsNothingUntilAsked(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 3, nil)
		services := make([]string, 6)
		for i := range services {
			services[i] = w.upload(t, w.gw.BaseURL, fmt.Sprintf("lazy%d.gsh", i), "echo l=${x}\n").Name
		}
		victim := w.gw.PrimaryFor(services[0])
		if err := w.gw.Kill(victim); err != nil {
			t.Fatal(err)
		}
		if err := w.gw.Rejoin(victim); err != nil {
			t.Fatal(err)
		}
		fresh := w.gw.Fleet()[victim].OnServe
		if infos, err := fresh.Services(); err != nil || len(infos) != 0 {
			t.Fatalf("the rejoined shard holds %d services (%v), want 0", len(infos), err)
		}
		before := w.gw.GatewayStats().Redeploys
		if _, out, err := invokeWait(w.gw.BaseURL, services[0], map[string]string{"x": "1"}); err != nil || out != "l=1\n" {
			t.Fatalf("invoke on the rejoined shard: %q %v", out, err)
		}
		infos, err := fresh.Services()
		if err != nil || len(infos) != 1 || infos[0].ServiceName != services[0] {
			t.Fatalf("the rejoined shard holds %+v (%v), want %s alone", infos, err, services[0])
		}
		if got := w.gw.GatewayStats().Redeploys - before; got != 1 {
			t.Fatalf("%d replays for one invocation, want 1", got)
		}
	})
}

// TestDeleteAfterRejoinSweepsTheFleet: a delete that reaches a rejoined
// owner before any other request for the service does replays the
// service there, is judged by the owner as it would have been, and
// sweeps the copy failover left on the successor. The service is gone
// from every member and from the listing, and nothing brings it back.
func TestDeleteAfterRejoinSweepsTheFleet(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 3, nil)
		name := w.upload(t, w.gw.BaseURL, "doomed.gsh", "echo d=${x}\n").Name
		victim := w.gw.PrimaryFor(name)
		holders := func() (n int) {
			t.Helper()
			for _, app := range w.gw.Fleet() {
				infos, err := app.OnServe.Services()
				if err != nil {
					t.Fatal(err)
				}
				for _, info := range infos {
					if info.ServiceName == name {
						n++
					}
				}
			}
			return n
		}
		if err := w.gw.Kill(victim); err != nil {
			t.Fatal(err)
		}
		ejectPrimary(t, w.gw, name) // its reads replay the service onto the successor
		if err := w.gw.Rejoin(victim); err != nil {
			t.Fatal(err)
		}
		if n := holders(); n != 1 {
			t.Fatalf("%d members hold %s before the delete, want the successor alone", n, name)
		}
		resp, err := web.Post(w.gw.BaseURL+"/api/delete?name="+name, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete on the rejoined owner: status %d: %s", resp.StatusCode, raw)
		}
		if n := holders(); n != 0 {
			t.Fatalf("%d members still hold %s after the delete", n, name)
		}
		resp, err = web.Get(w.gw.BaseURL + "/api/services")
		if err != nil {
			t.Fatal(err)
		}
		var listed []core.ExecutableInfo
		json.NewDecoder(resp.Body).Decode(&listed)
		resp.Body.Close()
		for _, info := range listed {
			if info.ServiceName == name {
				t.Fatalf("the listing still has %s", name)
			}
		}
		before := w.gw.GatewayStats().Redeploys
		if _, _, err := invokeWait(w.gw.BaseURL, name, nil); err == nil || !strings.Contains(err.Error(), "status 404") {
			t.Fatalf("invoke of the deleted service: %v, want a 404", err)
		}
		if got := w.gw.GatewayStats().Redeploys - before; got != 0 || holders() != 0 {
			t.Fatalf("an invoke of the deleted service replayed it %d times", got)
		}
	})
}

// TestGatewayRunsNoBackgroundGoroutine: once the requests it served are
// over, the gateway runs its Serve loop and nothing else, and Shutdown,
// which the fleet's cleanup calls, leaves nothing: the bubble ends.
func TestGatewayRunsNoBackgroundGoroutine(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		w := bootFleet(t, 4, nil)
		gatewayStats(t, w.gw) // a request served: Serve is running
		bubble.Wait()         // and the goroutines that served it are gone
		serve, other := 0, 0
		buf := make([]byte, 1<<20)
		for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		for _, g := range strings.Split(string(buf), "\n\n") {
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

// ejectPrimary sends reads of service through the gateway until its
// primary, killed, is ejected: nothing but requests finds a dead member.
// A successor serves each read.
func ejectPrimary(t *testing.T, gw *Gateway, service string) {
	t.Helper()
	for i := 0; gw.GatewayStats().Ejections == 0; i++ {
		if i == 20 {
			t.Fatal("the killed shard was never ejected")
		}
		resp, err := web.Get(gw.BaseURL + "/api/service?name=" + service)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}
