package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/uddi"
	"repro/internal/vtime"
)

type fleetWorld struct {
	gw    *Gateway
	env   *gridenv.Env
	clock *vtime.Scaled
}

// bootFleet boots one simulated grid plus a gateway fronting n
// appliances. The probe/pull cadences are on the scaled clock, chosen so
// the prober stays active without busy-looping at 20000x.
func bootFleet(t *testing.T, n int, mutate func(*Config)) *fleetWorld {
	t.Helper()
	clk := vtime.NewScaled(20000)
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{
			{Name: "siteA", Nodes: 2, CoresPerNode: 8},
			{Name: "siteB", Nodes: 2, CoresPerNode: 8},
		},
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
			Clock:             clk,
			Cost:              metrics.DefaultCost(),
			PollInterval:      2 * time.Second,
			InvocationTimeout: time.Hour,
		},
		Clock:         clk,
		ProbeInterval: 10 * time.Minute, // ~30ms real at 20000x
		HalfOpenAfter: 20 * time.Minute,
		PullInterval:  time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := Boot(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Shutdown() })
	gw.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	return &fleetWorld{gw: gw, env: env, clock: clk}
}

func (w *fleetWorld) upload(t *testing.T, base, filename, program string) uddi.Record {
	t.Helper()
	ct, body := multipartUploadProgram(t, filename, "alice", program)
	resp, err := http.Post(base+"/upload", ct, bytes.NewReader(body))
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
	resp, err := http.Post(base+"/api/invoke", "application/json", bytes.NewReader(payload))
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
	resp, err = http.Get(base + "/api/wait?ticket=" + inv.Ticket)
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

func gatewayStats(t *testing.T, gw *Gateway) Stats {
	t.Helper()
	resp, err := http.Get(gw.BaseURL + "/gateway/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFleetRoutingSticksAndMerges(t *testing.T) {
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
		spread[w.gw.PrimaryFor(rec.Name, "alice")] = true
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
	resp, err := http.Get(w.gw.BaseURL + "/api/services")
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
	resp, err = http.Get(w.gw.BaseURL + "/api/stats")
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
}

// TestUploadRoutesOnTheOwnerItIsPublishedAs: the portal takes an upload's
// user from the query string before the form and from the first field of
// several; a route decoder that read the form its own way sent such an
// upload to the shard of another owner's key, where no later request for
// the service goes, and only a catalog replay papered over it.
func TestUploadRoutesOnTheOwnerItIsPublishedAs(t *testing.T) {
	w := bootFleet(t, 4, nil)
	// A file whose service the ring places differently for the two owners.
	fileFor := func(tag string) (file, service string) {
		for i := 0; ; i++ {
			file = fmt.Sprintf("%s%d.gsh", tag, i)
			service, _ = core.ServiceNameFor(file)
			if w.gw.PrimaryFor(service, "alice") != w.gw.PrimaryFor(service, "mallory") {
				return file, service
			}
		}
	}
	for name, shape := range map[string]struct {
		query string
		users []string
	}{
		"query string before the form": {"?user=alice", []string{"mallory"}},
		"first field of two":           {"", []string{"alice", "mallory"}},
	} {
		file, service := fileFor(strings.Fields(name)[0])
		ct, body := multipartUpload(t, file, shape.users...)
		resp, err := http.Post(w.gw.BaseURL+"/upload"+shape.query, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rec uddi.Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || rec.Name != service || rec.Owner != "alice" {
			t.Fatalf("%s: upload status %d, record %+v (%v)", name, resp.StatusCode, rec, err)
		}
		rt, err := DecodeRoute(http.MethodPost, "/upload", strings.TrimPrefix(shape.query, "?"), ct, body)
		if err != nil || rt.Owner != rec.Owner || rt.Service != rec.Name {
			t.Fatalf("%s: routed as %+v (%v), published as %s of %s", name, rt, err, rec.Name, rec.Owner)
		}
		if _, _, err := invokeWait(w.gw.BaseURL, service, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := gatewayStats(t, w.gw); st.Redeploys != 0 || st.StickyHits != st.Routed {
			t.Fatalf("%s: the invoke went where the upload had not: redeploys %d, sticky %d of %d", name, st.Redeploys, st.StickyHits, st.Routed)
		}
	}
}

// TestFleetOfOneMatchesSingleAppliance pins the opt-in contract: a
// gateway fronting one appliance returns byte-identical portal API
// bodies to the appliance itself.
func TestFleetOfOneMatchesSingleAppliance(t *testing.T) {
	w := bootFleet(t, 1, nil)
	w.upload(t, w.gw.BaseURL, "solo.gsh", "echo s=${x}\n")

	direct := w.gw.Fleet()[0].BaseURL
	for _, path := range []string{"/api/services", "/api/service?name=SoloService", "/registry"} {
		viaGW, err := http.Get(w.gw.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		gwBody, _ := io.ReadAll(viaGW.Body)
		viaGW.Body.Close()
		viaApp, err := http.Get(direct + path)
		if err != nil {
			t.Fatal(err)
		}
		appBody, _ := io.ReadAll(viaApp.Body)
		viaApp.Body.Close()
		if path == "/registry" {
			// The gateway renders the replicated view with its own template;
			// require the same records, not the same HTML.
			if !strings.Contains(string(gwBody), "SoloService") {
				t.Fatalf("gateway registry page missing service:\n%s", gwBody)
			}
			continue
		}
		if !bytes.Equal(gwBody, appBody) {
			t.Fatalf("%s differs through the gateway:\n gw: %s\napp: %s", path, gwBody, appBody)
		}
	}
}

func TestFleetKillFailoverAndRejoin(t *testing.T) {
	w := bootFleet(t, 3, func(cfg *Config) {
		cfg.FailThreshold = 2
	})
	rec := w.upload(t, w.gw.BaseURL, "resilient.gsh", "echo r=${x}\n")
	victim := w.gw.PrimaryFor(rec.Name, "alice")
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

	// The prober ejects the corpse; then the shard rejoins, the catalog is
	// replayed onto the fresh appliance, the half-open trial readmits it,
	// and its keys route home again.
	waitFor(t, 10*time.Second, func() bool {
		return gatewayStats(t, w.gw).Ejections > 0
	}, "primary never ejected")
	if err := w.gw.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := gatewayStats(t, w.gw)
		return st.Recoveries > 0 && st.Upstreams[victim].State == "healthy"
	}, "rejoined shard never recovered")

	before := gatewayStats(t, w.gw)
	if _, out, err := invokeWait(w.gw.BaseURL, rec.Name, map[string]string{"x": "3"}); err != nil || out != "r=3\n" {
		t.Fatalf("post-rejoin invoke: %q %v", out, err)
	}
	after := gatewayStats(t, w.gw)
	if after.StickyHits <= before.StickyHits {
		t.Fatalf("post-rejoin invoke was not sticky: %+v -> %+v", before, after)
	}
}

// TestFleetConcurrentBurstSurvivesKillAndRejoin is the race-gate
// workhorse: a concurrent burst runs through the gateway while one
// appliance is killed and later rejoins. Every invocation must complete
// (clients re-issue on failure) and no invocation may execute twice —
// pinned by every successful invoke returning a distinct ticket.
func TestFleetConcurrentBurstSurvivesKillAndRejoin(t *testing.T) {
	w := bootFleet(t, 3, func(cfg *Config) {
		cfg.FailThreshold = 2
	})
	services := make([]string, 3)
	for i := range services {
		rec := w.upload(t, w.gw.BaseURL, fmt.Sprintf("burst%d.gsh", i), "echo b=${x}\n")
		services[i] = rec.Name
	}
	victim := w.gw.PrimaryFor(services[0], "alice")

	const calls = 18
	var (
		mu      sync.Mutex
		tickets = make(map[string]string) // ticket -> caller id
		wg      sync.WaitGroup
	)
	errs := make(chan error, calls)
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
					return
				}
				lastErr = err
				time.Sleep(50 * time.Millisecond)
			}
			errs <- fmt.Errorf("call %d never completed: %v", i, lastErr)
		}()
	}

	// Mid-burst: kill one shard, let the circuit open, then rejoin it.
	time.Sleep(100 * time.Millisecond)
	if err := w.gw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := w.gw.Rejoin(victim); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
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
	st := gatewayStats(t, w.gw)
	if st.Routed == 0 {
		t.Fatalf("stats %+v", st)
	}
	t.Logf("burst: routed=%d sticky=%d failovers=%d retried=%d redeploys=%d ejections=%d recoveries=%d",
		st.Routed, st.StickyHits, st.Failovers, st.Retried, st.Redeploys, st.Ejections, st.Recoveries)
}

// TestReplicatedUDDIWriteVsResolve races an upload through the gateway
// against reads of its replicated view: GET /gateway/uddi must never
// serve a torn listing, must show the new record once the upload has
// answered (the on-write upsert, not the hourly pull), and the service
// must then route sticky.
func TestReplicatedUDDIWriteVsResolve(t *testing.T) {
	w := bootFleet(t, 2, nil)

	done := make(chan struct{})
	var resolveErr error
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			// Hammer the view while the proxied upload is writing it.
			recs, err := listView(w.gw.BaseURL)
			if err != nil {
				resolveErr = err
				return
			}
			for _, rec := range recs {
				if rec.Name == "RacedService" && rec.Owner == "alice" {
					return // converged
				}
			}
		}
		resolveErr = fmt.Errorf("the view never showed the uploaded record")
	}()

	w.upload(t, w.gw.BaseURL, "raced.gsh", "echo raced=${x}\n")
	<-done
	if resolveErr != nil {
		t.Fatal(resolveErr)
	}
	if w.gw.PrimaryFor("RacedService", "") != w.gw.PrimaryFor("RacedService", "alice") {
		t.Fatal("the view does not resolve the service's owner")
	}
	if _, out, err := invokeWait(w.gw.BaseURL, "RacedService", map[string]string{"x": "7"}); err != nil || out != "raced=7\n" {
		t.Fatalf("invoke: %q %v", out, err)
	}
	if st := gatewayStats(t, w.gw); st.StickyHits != st.Routed {
		t.Fatalf("routing not sticky: %+v", st)
	}
}

// listView reads GET /gateway/uddi; a body that does not decode is a
// torn view.
func listView(base string) ([]uddi.Record, error) {
	resp, err := http.Get(base + "/gateway/uddi")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var recs []uddi.Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		return nil, fmt.Errorf("torn view: %v", err)
	}
	return recs, nil
}

// TestViewIsReadOnlyFromOutside pins that the gateway's public listener
// takes no view mutation: POST /gateway/uddi (once the peer-push door,
// reachable before any key check) is refused and changes nothing, so the
// owner half of the service|owner ring key cannot be rewritten by a
// caller.
func TestViewIsReadOnlyFromOutside(t *testing.T) {
	w := bootFleet(t, 2, nil)
	w.upload(t, w.gw.BaseURL, "pinned.gsh", "echo ok\n")
	before, err := listView(w.gw.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	primary := w.gw.PrimaryFor("PinnedService", "")
	for _, body := range []string{
		`{"op":"upsert","record":{"name":"PinnedService","owner":"mallory"}}`,
		`{"op":"upsert","record":{"name":"GhostService","owner":"mallory"}}`,
		`{"op":"delete","record":{"name":"PinnedService"}}`,
	} {
		resp, err := http.Post(w.gw.BaseURL+"/gateway/uddi", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /gateway/uddi %s: status %d, want 404 or 405", body, resp.StatusCode)
		}
	}
	after, err := listView(w.gw.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("view changed:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := w.gw.PrimaryFor("PinnedService", ""); got != primary {
		t.Fatalf("placement moved from shard %d to %d", primary, got)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(msg)
}
