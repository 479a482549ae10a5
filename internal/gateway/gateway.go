// Package gateway is the fleet front door: a stdlib-only reverse proxy
// that boots N onServe appliances (reusing appliance.BuildImage/Boot)
// and shards every portal API call across them by consistent hashing on
// "service|owner". One shard therefore owns everything downstream for
// its keys — grid sessions, cached stats, staged chunks — while
// read-style fan-out endpoints (/api/services, /api/stats,
// unknown-ticket lookups) scatter-gather and merge.
//
// Each upstream is health-checked actively (a periodic /api/stats probe
// with consecutive-failure ejection and half-open recovery) and
// passively (proxy transport errors feed the same circuit), idempotent
// reads retry once on the next healthy ring successor, and a replicated
// UDDI view (periodic pull plus on-write push to peer gateways) lets
// any gateway resolve any service without a cross-shard hop. The
// gateway keeps a catalog of every upload it proxied, so when a shard
// dies mid-burst its keys remap to the ring successor and the first 404
// there triggers a transparent catalog replay — invocations complete
// via failover instead of erroring until an operator re-publishes.
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
	"repro/internal/flatjson"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/sizedio"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
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
	// VirtualNodes per member on the hash ring (default 64).
	VirtualNodes int
	// FailThreshold consecutive failures eject an upstream (default 3).
	FailThreshold int
	// ProbeInterval is the active health-check cadence on Clock
	// (default 2s); ProbeTimeout is the probe's real-time deadline
	// (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// HalfOpenAfter is the ejection cooldown before a single half-open
	// trial probe is admitted (default 10s on Clock).
	HalfOpenAfter time.Duration
	// PullInterval is the replicated-UDDI refresh cadence (default 15s).
	PullInterval time.Duration
	// Clock paces probes and the view puller; nil means real time.
	Clock vtime.Clock
	// HTTP carries gateway→appliance traffic; nil uses a fresh client.
	HTTP *http.Client
	// Trace, when non-nil, records one gateway span per proxied request
	// and forwards its context in X-Grid-Trace, so appliance-side
	// waterfalls hang under the gateway hop. Share the collector with the
	// appliances' to get single gateway→appliance trees.
	Trace *trace.Collector
}

func (cfg *Config) fill() {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = 64
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.HalfOpenAfter <= 0 {
		cfg.HalfOpenAfter = 10 * time.Second
	}
	if cfg.PullInterval <= 0 {
		cfg.PullInterval = 15 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
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
	owner       string
	contentType string
	key         string // the uploader's X-Grid-Key value, "" when none
	query       string
	body        []byte
}

// Gateway is a booted fleet front door.
type Gateway struct {
	cfg     Config
	clock   vtime.Clock
	httpc   *http.Client
	tracer  *trace.Tracer
	ring    *ring
	members []*member
	byID    map[string]*member
	view    *view
	ctr     counters

	mu      sync.Mutex
	catalog map[string]*catalogEntry
	users   map[string]core.UserAuth

	tickets ticketTable

	rr      atomic.Uint64 // round-robin cursor for KindAny
	BaseURL string
	srv     *http.Server
	ln      net.Listener
	stop    chan struct{}
	bg      sync.WaitGroup
}

// Boot builds and boots the fleet, starts the health probers and the UDDI view puller, and serves the front
// door on ln (nil: an ephemeral loopback port).
func Boot(cfg Config, ln net.Listener) (*Gateway, error) {
	cfg.fill()
	if cfg.Fleet <= 0 {
		return nil, errors.New("gateway: Fleet must be >= 1")
	}
	httpc := cfg.HTTP
	if httpc == nil {
		httpc = &http.Client{}
	}
	g := &Gateway{
		cfg:     cfg,
		clock:   cfg.Clock,
		httpc:   httpc,
		view:    newView(),
		catalog: make(map[string]*catalogEntry),
		users:   make(map[string]core.UserAuth),
		stop:    make(chan struct{}),
	}
	if cfg.Trace != nil {
		g.tracer = trace.NewTracer("gateway", cfg.Clock, cfg.Trace)
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
	ids := make([]string, len(g.members))
	g.byID = make(map[string]*member, len(g.members))
	for i, m := range g.members {
		ids[i] = m.id
		g.byID[m.id] = m
	}
	g.ring = newRing(cfg.VirtualNodes, ids)
	g.tickets.limit = len(g.members) * core.DefaultInvocationRetention

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
	go g.srv.Serve(ln)

	// Seed the view before traffic arrives, then keep it fresh.
	g.refreshView()
	for _, m := range g.members {
		g.every(cfg.ProbeInterval, m.probe)
	}
	g.every(cfg.PullInterval, g.refreshView)
	return g, nil
}

// every runs fn once per interval of the gateway's clock until shutdown:
// the shard health checks and the replicated view's periodic pull.
func (g *Gateway) every(interval time.Duration, fn func()) {
	g.bg.Add(1)
	go func() {
		defer g.bg.Done()
		for {
			select {
			case <-g.stop:
				return
			case <-g.clock.After(interval):
			}
			fn()
		}
	}()
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
	app, err := img.Boot(nil)
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

// PrimaryFor reports which shard index the ring maps service|owner to —
// the stickiness target, health aside. Experiments and tests use it to
// pick a victim shard.
func (g *Gateway) PrimaryFor(service, owner string) int {
	if owner == "" {
		owner, _ = g.view.owner(service)
	}
	succ := g.ring.successors(service + "|" + owner)
	if len(succ) == 0 {
		return -1
	}
	return g.byID[succ[0]].idx
}

// Kill hard-stops shard i's appliance (listener and all), simulating a
// crashed box. Detection is organic: in-flight proxies fail passively
// and the prober ejects the upstream after FailThreshold consecutive
// failures.
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
// known user, replays the upload catalog so the newcomer can serve any
// service, and leaves the member ejected with an elapsed cooldown — the
// next probe is the half-open trial that readmits it. The shard keeps
// its ring position, so its old keys remap straight back.
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
	entries := make([]*catalogEntry, 0, len(g.catalog))
	for _, e := range g.catalog {
		entries = append(entries, e)
	}
	g.mu.Unlock()
	for u, a := range users {
		app.OnServe.RegisterUser(u, a)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].service < entries[b].service })
	for _, e := range entries {
		if err := g.replayUpload(app.BaseURL, e); err != nil {
			app.Shutdown()
			return fmt.Errorf("gateway: rejoin shard %d: replay %s: %w", i, e.service, err)
		}
	}

	m.mu.Lock()
	m.app = app
	m.base = app.BaseURL
	m.killed = false
	m.fails = 0
	m.state = stateEjected
	// Cooldown already elapsed: the very next probe is the half-open
	// trial.
	m.ejectedAt = g.clock.Now().Add(-g.cfg.HalfOpenAfter)
	m.mu.Unlock()
	return nil
}

// Shutdown stops the background loops, the front listener, and every
// owned appliance.
func (g *Gateway) Shutdown() error {
	close(g.stop)
	g.srv.Close()
	g.ln.Close()
	g.shutdownFleet()
	g.bg.Wait()
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

// registryPull is the request refreshView puts to every member.
var registryPull = &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/api/registry"}}

// refreshView pulls every healthy appliance's registry listing and
// installs the union. Ejected members keep their last-known records so
// a crashed shard's services remain resolvable for rerouting.
func (g *Gateway) refreshView() {
	union := g.view.list("")
	for _, resp := range g.gather(registryPull, nil) {
		var recs []uddi.Record
		if resp != nil && resp.status == http.StatusOK && json.Unmarshal(resp.body, &recs) == nil {
			union = append(union, recs...) // a later record of a name replaces an earlier one
		}
	}
	g.view.replaceAll(union)
	g.ctr.viewPulls.Add(1)
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
	reply, err := hop.Do(g.httpc, http.MethodPost, root, target,
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
	if strings.HasPrefix(r.URL.Path, "/gateway/") {
		g.serveInternal(w, r)
		return
	}
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
		var err error
		// One buffer of the declared size, handed to every hop as it is.
		body, err = sizedio.ReadAll(r.Body, r.ContentLength, maxBody)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, sizedio.ErrTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			portal.WriteError(w, status, fmt.Errorf("gateway: read body: %w", err))
			return
		}
	}
	rt, err := DecodeRoute(r.Method, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
	if err != nil {
		portal.WriteError(w, http.StatusBadRequest, err)
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

// ask proxies one request to m and is the one place proxied traffic
// feeds the member's passive health: a hop that fails counts against m
// and marks sp, any reply — a 5xx too, the appliance is there — counts
// for it. Every request the gateway sends a member goes through here,
// its own registry pulls and delete sweeps included.
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

// gather asks every healthy member but skip concurrently and returns the
// replies index-aligned with g.members: nil where a member was left out
// or its hop failed. What the replies mean is the caller's merge.
func (g *Gateway) gather(r *http.Request, skip *member) []*bufferedResponse {
	replies := make([]*bufferedResponse, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		if m == skip || !m.healthy() {
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
// accept takes, with the member that gave it. When none is taken it
// returns the last reply accept refused (nil when nobody answered) and
// the first hop error. It moves past a failed hop only where serveKeyed
// would retry: never once a write may have reached an upstream.
func (g *Gateway) first(order []*member, r *http.Request, body []byte, accept func(*bufferedResponse) bool) (*member, *bufferedResponse, error) {
	var refused *bufferedResponse
	var firstErr error
	for _, m := range order {
		resp, err := g.ask(m, r, body, nil)
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
	return nil, refused, firstErr
}

// healthyMembers is the fleet in index order, less the ejected.
func (g *Gateway) healthyMembers() []*member {
	out := make([]*member, 0, len(g.members))
	for _, m := range g.members {
		if m.healthy() {
			out = append(out, m)
		}
	}
	return out
}

// ---- keyed, ticket and affinity-free requests ----

// orderedMembers resolves the successor list to members.
func (g *Gateway) orderedMembers(key string) []*member {
	ids := g.ring.successors(key)
	out := make([]*member, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.byID[id])
	}
	return out
}

// pickHealthy returns the first healthy member of succ, falling back to
// the primary when the whole fleet looks down (the attempt itself is
// the passive probe that will flip someone back).
func pickHealthy(succ []*member) (*member, int) {
	for i, m := range succ {
		if m.healthy() {
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
	owner := rt.Owner
	if owner == "" && rt.Service != "" {
		owner, _ = g.view.owner(rt.Service)
	}
	succ := g.orderedMembers(rt.Key(owner))
	m, pos := pickHealthy(succ)
	if m == nil {
		portal.WriteError(w, http.StatusServiceUnavailable, errors.New("gateway: no upstreams"))
		return
	}
	g.ctr.routed.Add(1)
	if pos == 0 {
		g.ctr.sticky.Add(1)
	} else {
		g.ctr.failovers.Add(1)
	}

	sp := g.startSpan(r, rt, m)
	resp, err := g.ask(m, r, body, sp)
	if err != nil && safeToRetry(r.Method, err) {
		// Retry once on the next healthy successor. GETs are idempotent;
		// POSTs retry only when the dial itself failed, so the request can
		// never have reached (or executed on) the first upstream.
		if retry := g.nextHealthy(succ, m); retry != nil {
			g.ctr.retried.Add(1)
			sp.Set("retry", retry.id)
			m = retry
			resp, err = g.ask(m, r, body, sp)
		}
	}
	if err != nil {
		sp.End()
		portal.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: upstream %s: %w", m.id, err))
		return
	}

	// A 404 for a service the fleet owns means this upstream simply has
	// not seen the upload (ring failover or a fresh rejoin): replay the
	// catalog entry onto it and ask the original request once more.
	if resp.status == http.StatusNotFound && rt.Service != "" && rt.Kind != KindUpload && rt.Kind != KindDelete {
		base, _ := m.snapshot()
		if e := g.catalogGet(rt.Service); e != nil && g.replayUpload(base, e) == nil {
			g.ctr.redeploys.Add(1)
			m.redeploys.Add(1)
			sp.Set("redeploy", rt.Service)
			if again, err := g.ask(m, r, body, sp); err == nil {
				resp = again
			}
		}
	}

	g.learn(rt, m, r.Header, body, resp)
	sp.SetInt("status", int64(resp.status))
	sp.End()
	resp.write(w)
}

// nextHealthy returns the first healthy member after skip.
func (g *Gateway) nextHealthy(succ []*member, skip *member) *member {
	for _, m := range succ {
		if m != skip && m.healthy() {
			return m
		}
	}
	return nil
}

// learn harvests placement facts from a successful response: tickets
// map back to the shard that issued them, uploads enter the catalog and
// the replicated view, deletes leave both. header is the caller's.
func (g *Gateway) learn(rt Route, m *member, header http.Header, body []byte, resp *bufferedResponse) {
	if resp.status != http.StatusOK {
		return
	}
	switch rt.Kind {
	case KindInvoke:
		if ticket := invokeTicket(resp.body); ticket != "" {
			g.tickets.Store(ticket, m)
		}
	case KindUpload:
		e := &catalogEntry{
			service:     rt.Service,
			owner:       rt.Owner,
			contentType: header.Get("Content-Type"),
			key:         header.Get(tenant.KeyHeader),
			query:       rt.query,
			body:        append([]byte(nil), body...),
		}
		g.mu.Lock()
		g.catalog[rt.Service] = e
		g.mu.Unlock()
		var rec uddi.Record
		if json.Unmarshal(resp.body, &rec) == nil && rec.Name != "" {
			g.view.upsert(rec)
		}
	case KindDelete:
		g.mu.Lock()
		delete(g.catalog, rt.Service)
		g.mu.Unlock()
		g.view.remove(rt.Service)
		// Failover replays may have spread the service: sweep the rest of
		// the fleet so a later scatter cannot resurrect it. The sweep acts
		// for the caller, so it carries the caller's header — key and
		// trace context: a shard with tenancy on refuses a delete that
		// shows no key.
		g.gather(&http.Request{Method: http.MethodPost, Header: header,
			URL: &url.URL{Path: "/api/delete", RawQuery: url.Values{"name": {rt.Service}}.Encode()}}, m)
	}
}

// invokeTicket reads the ticket out of an appliance's /api/invoke reply,
// {"job_id":…,"site":…,"ticket":…}; any other document is
// encoding/json's to read.
func invokeTicket(doc []byte) string {
	var ticket string
	o := flatjson.Open(doc)
	for o.Next() {
		switch string(o.Key()) {
		case "ticket":
			ticket = o.String()
		case "job_id", "site":
			o.Skip()
		default:
			o.Fail()
		}
	}
	if o.Done() {
		return ticket
	}
	var out portal.InvokeReply
	if json.Unmarshal(doc, &out) != nil {
		return ""
	}
	return out.Ticket
}

func (g *Gateway) catalogGet(service string) *catalogEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.catalog[service]
}

// serveTicket routes ticket-addressed requests to the shard that issued
// the ticket, searching the fleet only for tickets the table does not
// hold: one a sibling gateway issued, or one it has since evicted.
func (g *Gateway) serveTicket(w http.ResponseWriter, r *http.Request, rt Route, body []byte) {
	if m, ok := g.tickets.Load(rt.Ticket); ok {
		g.ctr.ticketRoutes.Add(1)
		sp := g.startSpan(r, rt, m)
		resp, err := g.ask(m, r, body, sp)
		sp.End()
		if err != nil {
			portal.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: upstream %s: %w", m.id, err))
			return
		}
		resp.write(w)
		return
	}
	g.ctr.scatters.Add(1)
	known := func(resp *bufferedResponse) bool { return resp.status != http.StatusNotFound }
	m, resp, _ := g.first(g.healthyMembers(), r, body, known)
	if m != nil && rt.Ticket != "" {
		g.tickets.Store(rt.Ticket, m)
	}
	if resp == nil {
		portal.WriteError(w, http.StatusBadGateway, errors.New("gateway: no upstream answered"))
		return
	}
	resp.write(w)
}

// serveAny proxies affinity-free requests round-robin over the healthy
// fleet, moving on past a member whose hop fails.
func (g *Gateway) serveAny(w http.ResponseWriter, r *http.Request, body []byte) {
	start := int(g.rr.Add(1) - 1)
	order := make([]*member, 0, len(g.members))
	for i := range g.members {
		// The last in the rotation is asked even when it looks down: the
		// attempt is the passive probe of a fleet that is all ejected.
		if m := g.members[(start+i)%len(g.members)]; m.healthy() || i == len(g.members)-1 {
			order = append(order, m)
		}
	}
	_, resp, err := g.first(order, r, body, func(*bufferedResponse) bool { return true })
	if resp == nil {
		if err == nil {
			err = errors.New("gateway: no upstreams")
		}
		portal.WriteError(w, http.StatusBadGateway, err)
		return
	}
	resp.write(w)
}

// serveStats gathers /api/stats and prepends the gateway block.
func (g *Gateway) serveStats(w http.ResponseWriter, r *http.Request) {
	type shardDoc struct {
		ID    string          `json:"id"`
		Base  string          `json:"base"`
		State string          `json:"state"`
		Stats json.RawMessage `json:"stats,omitempty"`
	}
	g.ctr.scatters.Add(1)
	replies := g.gather(r, nil)
	now := g.clock.Now()
	docs := make([]shardDoc, len(g.members))
	// When any shard runs with tenancy on, surface a fleet-wide tenant
	// block: counters sum across shards, gauges take the fleet max.
	var merged tenant.Stats
	found := false
	for i, m := range g.members {
		base, _ := m.snapshot()
		docs[i] = shardDoc{ID: m.id, Base: base, State: m.stateName(now)}
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
	g.ctr.scatters.Add(1)
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

// serveServices gathers /api/services, deduplicates by service name
// (failover replays can make a service live on two shards; the lowest
// shard's copy is listed), and returns the merge sorted by name.
func (g *Gateway) serveServices(w http.ResponseWriter, r *http.Request) {
	g.ctr.scatters.Add(1)
	seen := make(map[string]bool)
	out := []core.ExecutableInfo{}
	for _, resp := range g.gather(r, nil) {
		var infos []core.ExecutableInfo
		if resp == nil || resp.status != http.StatusOK || json.Unmarshal(resp.body, &infos) != nil {
			continue
		}
		for _, info := range infos {
			if !seen[info.ServiceName] {
				seen[info.ServiceName] = true
				out = append(out, info)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ServiceName < out[j].ServiceName })
	writeJSON(w, http.StatusOK, out)
}

// serveRegistry renders the replicated view — the fleet-wide answer to
// the portal's /registry browser, on the portal's page, no cross-shard
// hop required.
func (g *Gateway) serveRegistry(w http.ResponseWriter, r *http.Request) {
	portal.WriteRegistryPage(w, g.view.list(r.URL.Query().Get("pattern")))
}

// serveInternal handles the gateway's own endpoints: the replicated
// view as JSON (GET /gateway/uddi) and the stats block (GET
// /gateway/stats). Both are read-only: the view changes only through
// this gateway's own proxied uploads and deletes and its periodic pull.
func (g *Gateway) serveInternal(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/gateway/uddi" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, g.view.list(r.URL.Query().Get("pattern")))
	case r.URL.Path == "/gateway/stats" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, g.GatewayStats())
	default:
		http.NotFound(w, r)
	}
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

// forward proxies one request to m, buffering the response. The caller's
// header goes out as it is; sp, when non-nil, is the gateway span whose
// context replaces X-Grid-Trace on the hop, in a copy, so appliance spans
// hang under it.
func (g *Gateway) forward(m *member, r *http.Request, body []byte, sp *trace.Span) (*bufferedResponse, error) {
	root, err := m.root()
	if err != nil {
		return nil, err
	}
	header := r.Header
	if tc := sp.Context(); tc.Valid() {
		header = make(http.Header, len(r.Header)+1)
		for k, vs := range r.Header {
			header[k] = vs
		}
		header.Set(trace.Header, tc.String())
	}
	m.proxied.Add(1)
	reply, err := hop.Do(g.httpc, r.Method, root, r.URL.RequestURI(), header, body, maxBody)
	if err != nil {
		m.proxyErrs.Add(1)
		// Flush pooled keep-alive connections: a crashed upstream surfaces
		// as an ambiguous EOF on a reused conn (never retried — the
		// request may have executed), but once the pool is clean the next
		// attempt fails at dial, which is provably safe to retry on a
		// ring successor.
		g.httpc.CloseIdleConnections()
		return nil, err
	}
	// The reply's header is nobody else's: hand it on, less the length,
	// which may change if callers re-frame.
	delete(reply.Header, "Content-Length")
	return &bufferedResponse{status: reply.Status, header: reply.Header, body: reply.Body}, nil
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
