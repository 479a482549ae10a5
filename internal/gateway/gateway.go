// Package gateway is the fleet front door: a stdlib-only reverse proxy
// that boots N onServe appliances (reusing appliance.BuildImage/Boot)
// and shards every portal API call across them by consistent hashing on
// the service name. Service names are unique fleet-wide, so the name
// alone places a service: one shard owns everything downstream of it —
// its staged executable, cached stats, the invocations it issued, whose
// tickets name it — while read-style fan-out endpoints (/api/services,
// /api/stats, /api/audit, /api/registry and its /registry page)
// scatter-gather and merge.
//
// The traffic the gateway proxies is its health check: a failed hop
// counts against the upstream, FailThreshold of them in a row eject it,
// and once HalfOpenAfter has passed one request at a time goes there as
// the half-open trial. Idempotent reads retry once on the next healthy ring
// successor. The gateway keeps a catalog of every upload it proxied, so
// when a shard dies its keys remap to the ring successor, and the first
// 404 there (or on the shard once it rejoins) triggers a transparent
// catalog replay — invocations complete via failover instead of erroring
// until an operator re-publishes. It runs no background loop.
//
// Everything here is opt-in: with no gateway in front (the default), a
// single appliance's wire behaviour is untouched.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/errcode"
	"repro/internal/hop"
	"repro/internal/jsonwarm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/sizedio"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
)

// Config describes a fleet gateway. The zero value of every tuning field
// selects a sensible default; only Fleet plus the appliance template are
// required.
type Config struct {
	// Fleet is how many appliances to boot from the Appliance template.
	Fleet int
	// Appliance is the per-shard image template. A non-empty DBDir gets a
	// "shard-<i>" subdirectory per member so fleets can persist.
	Appliance appliance.Config
	// PerShard, when non-nil, customises shard i's config (per-shard
	// probes, shaped grid dialers, trace collectors).
	PerShard func(i int, cfg appliance.Config) appliance.Config
	// FailThreshold consecutive failed hops eject an upstream (default 3).
	FailThreshold int
	// HalfOpenAfter is the ejection cooldown after which the next request
	// sent to the upstream is its half-open trial (default 10s).
	HalfOpenAfter time.Duration
	// Net, when non-nil, is the in-process network the shards listen on
	// and are dialled through; nil means loopback TCP and hop.Shared().
	Net *netsim.Net
	// Trace, when non-nil, records one gateway span per proxied request
	// and forwards its context in X-Grid-Trace, so appliance-side
	// waterfalls hang under the gateway hop. Share the collector with the
	// appliances' to get single gateway→appliance trees.
	Trace *trace.Collector
}

func (cfg *Config) fill() {
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.HalfOpenAfter <= 0 {
		cfg.HalfOpenAfter = 10 * time.Second
	}
}

// maxBody bounds one buffered request or response body: the portal's
// upload cap plus envelope slack. A body past it is refused, never cut
// short and passed on. A variable only so tests can lower it.
var maxBody int64 = portal.MaxUploadBytes + (1 << 20)

// catalogEntry is one proxied upload, kept as it was sent — the form, the
// query string that outranks the form's fields, the uploader's key — so
// that replaying it onto a ring successor (failover) or a rejoined shard
// is the same upload: admitted where tenancy is on, published under the
// same owner.
type catalogEntry struct {
	service     string
	contentType string
	key         string // the uploader's X-Grid-Key value, "" when none
	query       string
	body        []byte
}

// Gateway is a booted fleet front door.
type Gateway struct {
	cfg     Config
	rt      http.RoundTripper
	tracer  *trace.Tracer
	ring    *ring
	members []*member
	stats   metrics.Block[Stats] // the gateway-wide counters

	mu      sync.Mutex
	catalog map[string]*catalogEntry
	users   map[string]core.UserAuth

	rr      atomic.Uint64 // round-robin cursor for KindAny
	BaseURL string
	srv     *http.Server
	ln      net.Listener
	served  chan struct{} // closed when the listener's Serve has returned
}

// Boot builds and boots the fleet and serves the front door on ln (nil:
// an ephemeral loopback port). The listener's Serve is the one goroutine
// it starts.
func Boot(cfg Config, ln net.Listener) (*Gateway, error) {
	cfg.fill()
	if cfg.Fleet <= 0 {
		return nil, errors.New("gateway: Fleet must be >= 1")
	}
	rt := http.RoundTripper(hop.Shared())
	if cfg.Net != nil {
		rt = hop.NewTransport(cfg.Net.DialContext)
	}
	g := &Gateway{
		cfg:     cfg,
		rt:      rt,
		catalog: make(map[string]*catalogEntry),
		users:   make(map[string]core.UserAuth),
	}
	if cfg.Trace != nil {
		g.tracer = trace.NewTracer("gateway", nil, cfg.Trace)
	}

	for i := 0; i < cfg.Fleet; i++ {
		app, err := g.bootShard(i)
		if err != nil {
			for _, m := range g.members {
				m.app.Shutdown()
			}
			return nil, err
		}
		g.members = append(g.members, &member{
			id: fmt.Sprintf("shard-%d", i), idx: i, gw: g,
			app: app, base: app.BaseURL,
		})
	}
	g.ring = newRing(g.members)

	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.shutdownFleet()
			return nil, fmt.Errorf("gateway: listen: %w", err)
		}
	}
	g.ln = ln
	g.BaseURL = "http://" + ln.Addr().String()
	g.srv = netsim.NewHTTPServer(g)
	g.served = make(chan struct{})
	go func() {
		defer close(g.served)
		g.srv.Serve(ln)
	}()
	return g, nil
}

// bootShard builds and boots shard i from the template.
func (g *Gateway) bootShard(i int) (*appliance.Appliance, error) {
	cfg := g.cfg.Appliance
	if cfg.DBDir != "" {
		cfg.DBDir = filepath.Join(cfg.DBDir, fmt.Sprintf("shard-%d", i))
	}
	if g.cfg.PerShard != nil {
		cfg = g.cfg.PerShard(i, cfg)
	}
	img, err := appliance.BuildImage(cfg)
	if err != nil {
		return nil, fmt.Errorf("gateway: shard %d: %w", i, err)
	}
	var ln net.Listener
	if g.cfg.Net != nil {
		ln = g.cfg.Net.Listen()
	}
	app, err := img.Boot(ln)
	if err != nil {
		return nil, fmt.Errorf("gateway: boot shard %d: %w", i, err)
	}
	return app, nil
}

// Fleet returns the live appliances, index-aligned with the shards.
func (g *Gateway) Fleet() []*appliance.Appliance {
	out := make([]*appliance.Appliance, len(g.members))
	for i, m := range g.members {
		_, out[i] = m.snapshot()
	}
	return out
}

// RegisterUser registers grid credentials on every shard (and on shards
// that rejoin later).
func (g *Gateway) RegisterUser(user string, auth core.UserAuth) {
	g.mu.Lock()
	g.users[user] = auth
	g.mu.Unlock()
	for _, m := range g.members {
		if _, app := m.snapshot(); app != nil {
			app.OnServe.RegisterUser(user, auth)
		}
	}
}

// PrimaryFor reports which shard index the ring maps service to — the
// stickiness target, health aside. Experiments and tests use it to pick a
// victim shard.
func (g *Gateway) PrimaryFor(service string) int {
	var buf [8]*member
	succ := g.ring.walk(service, buf[:])
	if len(succ) == 0 {
		return -1
	}
	return succ[0].idx
}

// Kill hard-stops shard i's appliance (listener and all), simulating a
// crashed box. Detection is organic: the requests that reach it fail,
// and FailThreshold of them in a row eject it. Until one reaches it, it
// still shows healthy.
func (g *Gateway) Kill(i int) error {
	if i < 0 || i >= len(g.members) {
		return fmt.Errorf("gateway: no shard %d", i)
	}
	m := g.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed || m.app == nil {
		return nil
	}
	m.killed = true
	return m.app.Shutdown()
}

// Rejoin boots a fresh appliance for a killed shard, re-registers every
// known user and readmits the member. The shard keeps its ring position,
// so its old keys remap straight back; it gets each service on the first
// request that finds it missing, by the catalog replay failover uses.
func (g *Gateway) Rejoin(i int) error {
	if i < 0 || i >= len(g.members) {
		return fmt.Errorf("gateway: no shard %d", i)
	}
	m := g.members[i]
	m.mu.Lock()
	if !m.killed {
		m.mu.Unlock()
		return fmt.Errorf("gateway: shard %d is not killed", i)
	}
	m.mu.Unlock()

	app, err := g.bootShard(i)
	if err != nil {
		return err
	}
	g.mu.Lock()
	users := maps.Clone(g.users)
	g.mu.Unlock()
	for u, a := range users {
		app.OnServe.RegisterUser(u, a)
	}

	m.mu.Lock()
	m.app, m.base, m.killed, m.st.ConsecutiveFails, m.trial = app, app.BaseURL, false, 0, false
	if m.state != stateHealthy {
		m.state = stateHealthy // a fresh box owes no trial
		m.st.Recoveries++
	}
	m.mu.Unlock()
	return nil
}

// Shutdown stops the front listener, waits for its Serve to return, and
// stops every owned appliance.
func (g *Gateway) Shutdown() error {
	g.srv.Close()
	g.ln.Close()
	<-g.served
	g.shutdownFleet()
	return nil
}

func (g *Gateway) shutdownFleet() {
	for _, m := range g.members {
		m.mu.Lock()
		if !m.killed && m.app != nil {
			m.app.Shutdown()
			m.killed = true
		}
		m.mu.Unlock()
	}
}

// replayUpload re-POSTs a catalogued upload to the appliance at base: a
// request of the gateway's own, not a proxied one, so it bypasses ask.
func (g *Gateway) replayUpload(base string, e *catalogEntry) error {
	root, err := url.Parse(base)
	if err != nil {
		return err
	}
	target := "/upload"
	if e.query != "" {
		target += "?" + e.query
	}
	reply, err := hop.Do(g.rt, http.MethodPost, root, target,
		hop.Header("Content-Type", e.contentType, tenant.KeyHeader, e.key), e.body, maxBody)
	if err != nil {
		return err
	}
	if reply.Status != http.StatusOK {
		return fmt.Errorf("gateway: replay upload: http %d", reply.Status)
	}
	return nil
}

// ---- dispatch ----

// ServeHTTP is the front door.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
		var err error
		// One buffer of the declared size, handed to every hop as it is;
		// closed once read, so the server need not look for more of it.
		body, err = sizedio.ReadAll(r.Body, r.ContentLength, maxBody)
		r.Body.Close()
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, sizedio.ErrTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			errcode.Refuse(status, "gateway: read body: "+err.Error()).Write(w)
			return
		}
	}
	rt, err := DecodeRoute(r.Method, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
	if err != nil {
		errcode.Refuse(http.StatusBadRequest, err.Error()).Write(w)
		return
	}
	switch rt.Kind {
	case KindStats:
		g.serveStats(w, r)
	case KindAudit:
		g.serveAudit(w, r)
	case KindServices:
		g.serveServices(w, r)
	case KindRegistry:
		g.serveRegistry(w, r)
	case KindTicket:
		g.serveTicket(w, r, rt, body)
	case KindAny:
		g.serveAny(w, r, body)
	default:
		g.serveKeyed(w, r, rt, body)
	}
}

// ---- the two loops ----

// ask proxies one request to m and is the one place traffic feeds the
// member's health: a hop that fails counts against m and marks sp, any
// reply — a 5xx too, the appliance is there — counts for it. Every
// request the gateway sends a member goes through here, its own scatters
// and delete sweeps included; the one admit lets through to an ejected
// member is its half-open trial.
func (g *Gateway) ask(m *member, r *http.Request, body []byte, sp *trace.Span) (*bufferedResponse, error) {
	resp, err := g.forward(m, r, body, sp)
	if err != nil {
		m.fail()
		sp.Error(err.Error())
		return nil, err
	}
	m.ok()
	return resp, nil
}

// gather asks every admitted member but skip concurrently and returns
// the replies index-aligned with g.members: nil where a member was left
// out or its hop failed. What the replies mean is the caller's merge.
func (g *Gateway) gather(r *http.Request, skip *member) []*bufferedResponse {
	replies := make([]*bufferedResponse, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		if m == skip || !m.admit() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i], _ = g.ask(m, r, nil, nil)
		}()
	}
	wg.Wait()
	return replies
}

// first asks order's members one at a time and returns the first reply
// accept takes, with the member that gave it: in order those admit lets
// through, then, last, those it turned away — a member whose circuit is
// open may still be the only one that holds what was asked for. When
// none is taken it returns the last reply accept refused (nil when nobody
// answered) and the first hop error (nil when nobody failed). It moves
// past a failed hop only where serveKeyed would retry: never once a write
// may have reached an upstream. A member is admitted only when its turn
// comes.
func (g *Gateway) first(order []*member, r *http.Request, body []byte, sp *trace.Span, accept func(*bufferedResponse) bool) (*member, *bufferedResponse, error) {
	var refused *bufferedResponse
	var firstErr error
	var shut []*member // turned away by admit: the second pass
	for pass, members := 0, order; pass < 2; pass, members = pass+1, shut {
		for _, m := range members {
			if pass == 0 && !m.admit() {
				shut = append(shut, m)
				continue
			}
			resp, err := g.ask(m, r, body, sp)
			switch {
			case err == nil && accept(resp):
				return m, resp, nil
			case err == nil:
				refused = resp
			default:
				if firstErr == nil {
					firstErr = err
				}
				if !safeToRetry(r.Method, err) {
					return nil, refused, firstErr
				}
			}
		}
	}
	return nil, refused, firstErr
}

// ---- keyed, ticket and affinity-free requests ----

// pickHealthy returns the first member of succ that admits a request,
// falling back to the primary when none does (the attempt itself may be
// the reply that flips it back).
func pickHealthy(succ []*member) (*member, int) {
	for i, m := range succ {
		if m.admit() {
			return m, i
		}
	}
	if len(succ) == 0 {
		return nil, -1
	}
	return succ[0], 0
}

// serveKeyed routes one consistent-hash request. Its two second chances
// are policy, spelled out here over ask rather than bent into first: one
// retry on the next healthy successor where that cannot double-execute,
// and a catalog replay when an upstream turns out not to hold a service
// the fleet owns.
func (g *Gateway) serveKeyed(w http.ResponseWriter, r *http.Request, rt Route, body []byte) {
	var buf [8]*member
	succ := g.ring.walk(rt.Service, buf[:])
	m, pos := pickHealthy(succ)
	if m == nil {
		errcode.Refuse(http.StatusServiceUnavailable, "gateway: no upstreams").Write(w)
		return
	}
	g.stats.Update(func(st *Stats) {
		st.Routed++
		if pos == 0 {
			st.StickyHits++
		} else {
			st.Failovers++
		}
	})

	sp := g.startSpan(r, rt, m)
	resp, err := g.ask(m, r, body, sp)
	if err != nil && safeToRetry(r.Method, err) {
		// Retry once on the next healthy successor. GETs are idempotent;
		// POSTs retry only when the dial itself failed, so the request can
		// never have reached (or executed on) the first upstream.
		if retry := g.nextHealthy(succ, m); retry != nil {
			g.stats.Update(func(st *Stats) { st.Retried++ })
			sp.Set("retry", retry.id)
			m = retry
			resp, err = g.ask(m, r, body, sp)
		}
	}
	if err != nil {
		sp.End()
		errcode.Refuse(http.StatusBadGateway, fmt.Sprintf("gateway: upstream %s: %v", m.id, err)).Write(w)
		return
	}

	// A 404 for a service the fleet owns means this upstream simply has
	// not seen the upload (ring failover or a fresh rejoin): replay the
	// catalog entry onto it and ask the original request once more. A
	// delete too: the upstream then judges it as the owner would, and
	// its 200 sweeps the fleet.
	if resp.status == http.StatusNotFound && rt.Service != "" && rt.Kind != KindUpload {
		base, _ := m.snapshot()
		if e := g.catalogGet(rt.Service); e != nil && g.replayUpload(base, e) == nil {
			g.stats.Update(func(st *Stats) { st.Redeploys++ })
			m.mu.Lock()
			m.st.Redeploys++
			m.mu.Unlock()
			sp.Set("redeploy", rt.Service)
			if again, err := g.ask(m, r, body, sp); err == nil {
				resp = again
			}
		}
	}

	g.learn(rt, m, r.Header, body, resp.status)
	sp.SetInt("status", int64(resp.status))
	sp.End()
	resp.write(w)
}

// nextHealthy returns the first member but skip that admits a request.
func (g *Gateway) nextHealthy(succ []*member, skip *member) *member {
	for _, m := range succ {
		if m != skip && m.admit() {
			return m
		}
	}
	return nil
}

// learn keeps the catalog from a keyed request m answered with status:
// an upload that succeeded enters it, a delete that did leaves it. Of the
// reply it reads the status alone. header is the caller's.
func (g *Gateway) learn(rt Route, m *member, header http.Header, body []byte, status int) {
	if status != http.StatusOK {
		return
	}
	switch rt.Kind {
	case KindUpload:
		// body is the request's own buffer, which nothing reuses: the
		// catalog keeps it rather than a second copy, unless the buffer
		// grew past the body (an upload of unknown length), whose slack
		// it would keep too.
		if cap(body) != len(body) {
			body = append(make([]byte, 0, len(body)), body...)
		}
		e := &catalogEntry{
			service:     rt.Service,
			contentType: header.Get("Content-Type"),
			key:         header.Get(tenant.KeyHeader),
			query:       rt.query,
			body:        body,
		}
		g.mu.Lock()
		g.catalog[rt.Service] = e
		g.mu.Unlock()
	case KindDelete:
		g.mu.Lock()
		delete(g.catalog, rt.Service)
		g.mu.Unlock()
		// Failover replays may have spread the service: sweep the rest of
		// the fleet so a later scatter cannot resurrect it. The sweep acts
		// for the caller, so it carries the caller's header — key and
		// trace context: a shard with tenancy on refuses a delete that
		// shows no key.
		g.gather(&http.Request{Method: http.MethodPost, Header: header,
			URL: &url.URL{Path: "/api/delete", RawQuery: url.Values{"name": {rt.Service}}.Encode()}}, m)
	}
}

func (g *Gateway) catalogGet(service string) *catalogEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.catalog[service]
}

// serveTicket routes a ticket-addressed request by the service its
// ticket names, along that service's ring walk: the primary issued the
// ticket, or a successor did while the primary was ejected. The first
// member that answers other than not_found (errcode.Decode's, so a 404
// page with no envelope is one too) holds the invocation: a 404 with
// another code (an output file the job never wrote) is the holder's answer.
func (g *Gateway) serveTicket(w http.ResponseWriter, r *http.Request, rt Route, body []byte) {
	g.stats.Update(func(st *Stats) { st.TicketRoutes++ })
	var buf [8]*member
	succ := g.ring.walk(rt.Service, buf[:])
	sp := g.startSpan(r, rt, succ[0])
	m, resp, err := g.first(succ, r, body, sp, func(resp *bufferedResponse) bool {
		if resp.status != http.StatusNotFound {
			return true
		}
		code, _ := errcode.Decode(resp.status, resp.body)
		return code != errcode.NotFound
	})
	if m != nil {
		sp.Set("upstream", m.id)
	}
	sp.End()
	if resp == nil {
		errcode.Refuse(http.StatusBadGateway, fmt.Sprintf("gateway: no upstream answered: %v", err)).Write(w)
		return
	}
	resp.write(w)
}

// serveAny proxies affinity-free requests round-robin over the admitted
// fleet, moving on past a member whose hop fails.
func (g *Gateway) serveAny(w http.ResponseWriter, r *http.Request, body []byte) {
	start := int(g.rr.Add(1) - 1)
	order := make([]*member, len(g.members))
	for i := range order {
		order[i] = g.members[(start+i)%len(g.members)]
	}
	_, resp, err := g.first(order, r, body, nil, func(*bufferedResponse) bool { return true })
	if resp == nil {
		errcode.Refuse(http.StatusBadGateway, err.Error()).Write(w)
		return
	}
	resp.write(w)
}

// The types this package sends through encoding/json (jsonwarm).
func init() {
	jsonwarm.List(map[string]any{}, Stats{}, []shardDoc{}, tenant.Stats{}, portal.AuditReply{}, []core.ExecutableInfo{}, []uddi.Record{})
}

// shardDoc is one member's entry in the fleet's /api/stats.
type shardDoc struct {
	ID    string          `json:"id"`
	Base  string          `json:"base"`
	State string          `json:"state"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// serveStats gathers /api/stats and prepends the gateway block.
func (g *Gateway) serveStats(w http.ResponseWriter, r *http.Request) {
	g.stats.Update(func(st *Stats) { st.Scatters++ })
	replies := g.gather(r, nil)
	now := time.Now()
	docs := make([]shardDoc, len(g.members))
	// When any shard runs with tenancy on, surface a fleet-wide tenant
	// block: counters sum across shards, gauges take the fleet max.
	var merged tenant.Stats
	found := false
	for i, m := range g.members {
		st := m.stats(now)
		docs[i] = shardDoc{ID: m.id, Base: st.Base, State: st.State}
		if replies[i] == nil || replies[i].status != http.StatusOK {
			continue
		}
		docs[i].Stats = replies[i].body
		var payload struct {
			Tenant *tenant.Stats `json:"tenant"`
		}
		if json.Unmarshal(replies[i].body, &payload) == nil && payload.Tenant != nil {
			merged.Merge(*payload.Tenant)
			found = true
		}
	}
	doc := map[string]any{
		"gateway": g.GatewayStats(),
		"fleet":   docs,
	}
	if found {
		doc["tenant"] = merged
	}
	writeJSON(w, http.StatusOK, doc)
}

// serveAudit gathers /api/audit across the fleet: per-shard enforcement
// means each shard holds only the audit records for actions it admitted
// or denied, so the fleet-wide view merges them newest first. When no
// shard runs with tenancy on, the gateway answers 404 exactly like a
// single appliance would.
func (g *Gateway) serveAudit(w http.ResponseWriter, r *http.Request) {
	n := 50
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	g.stats.Update(func(st *Stats) { st.Scatters++ })
	merged := portal.AuditReply{Records: []tenant.Record{}}
	found := false
	for _, resp := range g.gather(r, nil) {
		var doc portal.AuditReply
		if resp != nil && resp.status == http.StatusOK && json.Unmarshal(resp.body, &doc) == nil {
			found = true
			merged.Records = append(merged.Records, doc.Records...)
			merged.Dropped += doc.Dropped
		}
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	sort.Slice(merged.Records, func(i, j int) bool {
		a, b := merged.Records[i], merged.Records[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.After(b.Time)
		}
		return a.Seq > b.Seq
	})
	merged.Records = merged.Records[:min(n, len(merged.Records))]
	writeJSON(w, http.StatusOK, merged)
}

// serveServices gathers /api/services and returns the union sorted by
// service name.
func (g *Gateway) serveServices(w http.ResponseWriter, r *http.Request) {
	g.stats.Update(func(st *Stats) { st.Scatters++ })
	writeJSON(w, http.StatusOK, union(g.gather(r, nil), func(info core.ExecutableInfo) string { return info.ServiceName }))
}

// serveRegistry gathers every member's /api/registry listing (the
// caller's ?pattern= included) and answers the union: the listing itself
// on /api/registry, the portal's own registry page on /registry.
func (g *Gateway) serveRegistry(w http.ResponseWriter, r *http.Request) {
	g.stats.Update(func(st *Stats) { st.Scatters++ })
	listing := &http.Request{Method: http.MethodGet, Header: r.Header,
		URL: &url.URL{Path: "/api/registry", RawQuery: r.URL.RawQuery}}
	recs := union(g.gather(listing, nil), func(rec uddi.Record) string { return rec.Name })
	if r.URL.Path == listing.URL.Path {
		writeJSON(w, http.StatusOK, recs)
		return
	}
	portal.WriteRegistryPage(w, recs)
}

// union decodes each 200 reply as a JSON list and merges the lists,
// deduplicated by name and sorted by it. A failover replay can leave a
// service on two shards; the lowest shard's copy is listed.
func union[T any](replies []*bufferedResponse, name func(T) string) []T {
	seen := make(map[string]bool)
	out := []T{}
	for _, resp := range replies {
		var items []T
		if resp == nil || resp.status != http.StatusOK || json.Unmarshal(resp.body, &items) != nil {
			continue
		}
		for _, item := range items {
			if n := name(item); !seen[n] {
				seen[n] = true
				out = append(out, item)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return name(out[i]) < name(out[j]) })
	return out
}

// ---- proxy plumbing ----

// bufferedResponse is one upstream response, fully read so the gateway
// can learn from it and retries can never interleave half-written
// bodies.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

func (b *bufferedResponse) write(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// hopHeaders describe one connection, not the message (RFC 9110 §7.6.1):
// a proxy drops them, and the fields Connection names, on both legs, as
// httputil.ReverseProxy does. A caller's Connection: close forwarded would
// cost the member's pooled connection.
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

func hasHopHeader(h http.Header) bool {
	for _, k := range hopHeaders {
		if _, ok := h[k]; ok {
			return true
		}
	}
	return false
}

func dropHopHeaders(h http.Header) {
	for _, f := range h["Connection"] {
		for _, k := range strings.Split(f, ",") {
			if k = textproto.TrimString(k); k != "" {
				h.Del(k)
			}
		}
	}
	for _, k := range hopHeaders {
		delete(h, k)
	}
}

// forward proxies one request to m, buffering the response. The caller's
// header goes out as it is, less its hop-by-hop fields; sp, when non-nil,
// is the gateway span whose context replaces X-Grid-Trace on the hop, so
// appliance spans hang under it. Either change is made in a copy.
func (g *Gateway) forward(m *member, r *http.Request, body []byte, sp *trace.Span) (*bufferedResponse, error) {
	root, err := m.send()
	if err != nil {
		return nil, err
	}
	header := r.Header
	if tc := sp.Context(); tc.Valid() || hasHopHeader(header) {
		header = make(http.Header, len(r.Header)+1)
		for k, vs := range r.Header {
			header[k] = vs
		}
		dropHopHeaders(header)
		if tc.Valid() {
			header.Set(trace.Header, tc.String())
		}
	}
	reply, err := hop.Do(g.rt, r.Method, root, requestTarget(r), header, body, maxBody)
	if err != nil {
		m.mu.Lock()
		m.st.ProxyErrors++
		m.mu.Unlock()
		// Flush pooled keep-alive connections: a crashed upstream surfaces
		// as an ambiguous EOF on a reused conn (never retried — the
		// request may have executed), but once the pool is clean the next
		// attempt fails at dial, which is provably safe to retry on a
		// ring successor.
		if c, ok := g.rt.(interface{ CloseIdleConnections() }); ok {
			c.CloseIdleConnections()
		}
		return nil, err
	}
	// The reply's header is nobody else's: hand it on, less the length,
	// which may change if callers re-frame, and its hop-by-hop fields.
	delete(reply.Header, "Content-Length")
	dropHopHeaders(reply.Header)
	return &bufferedResponse{status: reply.Status, header: reply.Header, body: reply.Body}, nil
}

// requestTarget is the target forward sends r on: the one the caller sent,
// when the server read it in origin form and r.URL still says the same,
// else (a request the gateway built, or rewrote) r.URL's, built again.
func requestTarget(r *http.Request) string {
	if t := r.RequestURI; strings.HasPrefix(t, "/") {
		if path, query, _ := strings.Cut(t, "?"); query == r.URL.RawQuery && path == r.URL.EscapedPath() {
			return t
		}
	}
	return r.URL.RequestURI()
}

// startSpan opens the gateway-side span for one proxied request. Nil
// tracer (the default) yields a nil span; every Span method no-ops.
func (g *Gateway) startSpan(r *http.Request, rt Route, m *member) *trace.Span {
	if g.tracer == nil {
		return nil
	}
	parent, _ := trace.Parse(r.Header.Get(trace.Header))
	sp := g.tracer.StartSpan("route:"+rt.Kind.String(), parent)
	sp.Set("upstream", m.id)
	if rt.Service != "" {
		sp.Set("service", rt.Service)
	}
	return sp
}

// safeToRetry reports whether a failed attempt may be retried on a
// successor: reads always, writes only when the dial never connected —
// a request that was never sent cannot have executed.
func safeToRetry(method string, err error) bool {
	if method == http.MethodGet || method == http.MethodHead {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr) && opErr.Op == "dial"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
