package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/gridsim"
	"repro/internal/jsdl"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// InvState is an invocation's lifecycle state.
type InvState string

// Invocation states.
const (
	InvRunning   InvState = "RUNNING"
	InvDone      InvState = "DONE"
	InvFailed    InvState = "FAILED"
	InvCancelled InvState = "CANCELLED"
	InvKilled    InvState = "KILLED" // watchdog
)

// Terminal reports whether the state is final.
func (s InvState) Terminal() bool {
	switch s {
	case InvDone, InvFailed, InvCancelled, InvKilled:
		return true
	}
	return false
}

// Invocation tracks one execute() call from ticket issue to final output.
type Invocation struct {
	Ticket    string
	Service   string
	JobID     string
	Site      string
	User      string
	StartedAt time.Time

	sessionID string

	// onTerminal, when set, is called exactly once after the invocation
	// reaches a terminal state (outside the invocation lock); OnServe
	// uses it to prune old terminal tickets.
	onTerminal func(*Invocation)

	// rootSpan/collectSpan are the invocation's trace spans (nil when
	// tracing is off). Written before the collection goroutine starts,
	// ended exactly once by finish.
	rootSpan    *trace.Span
	collectSpan *trace.Span

	mu      sync.Mutex
	state   InvState
	output  string
	message string
	endedAt time.Time
	done    chan struct{}
}

// State returns the current state.
func (inv *Invocation) State() InvState {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.state
}

// Output returns the stdout gathered so far by the tentative poller.
func (inv *Invocation) Output() string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.output
}

// Message returns the failure message, if any.
func (inv *Invocation) Message() string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.message
}

// DoneChan closes when the invocation is terminal.
func (inv *Invocation) DoneChan() <-chan struct{} { return inv.done }

// EndedAt returns when the invocation reached a terminal state (zero
// while still in flight): the collector-side end of the
// completion-detection latency.
func (inv *Invocation) EndedAt() time.Time {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.endedAt
}

// TraceID returns the invocation's hex trace id, or "" when untraced.
func (inv *Invocation) TraceID() string {
	s := inv.rootSpan.Context().String()
	if s == "" {
		return ""
	}
	return s[:32]
}

// collectCtx is the parent context for per-tick poll spans.
func (inv *Invocation) collectCtx() trace.SpanContext { return inv.collectSpan.Context() }

// StatusJSON renders the externally visible status.
func (inv *Invocation) StatusJSON() (string, error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	b, err := json.Marshal(map[string]string{
		"ticket":  inv.Ticket,
		"service": inv.Service,
		"job_id":  inv.JobID,
		"site":    inv.Site,
		"state":   string(inv.state),
		"message": inv.message,
	})
	return string(b), err
}

func (inv *Invocation) setOutput(out string) {
	inv.mu.Lock()
	inv.output = out
	inv.mu.Unlock()
}

// finish records a terminal state once; it reports whether this call did.
func (inv *Invocation) finish(s InvState, msg string, at time.Time) bool {
	inv.mu.Lock()
	if inv.state.Terminal() {
		inv.mu.Unlock()
		return false
	}
	inv.state = s
	inv.message = msg
	inv.endedAt = at
	cb := inv.onTerminal
	inv.mu.Unlock()
	// End the span tree exactly once, on whichever path won the race — a
	// collector, the watchdog, or cancel. Any non-DONE terminal state ends
	// it with error status, so cancelled and watchdog-killed invocations
	// never leak an open or "ok" tree.
	if s != InvDone {
		inv.collectSpan.Error(msg)
		inv.rootSpan.Error(msg)
	}
	inv.collectSpan.Set("state", string(s))
	inv.collectSpan.EndAt(at)
	inv.rootSpan.EndAt(at)
	// Only now wake the waiters: whoever sees DoneChan closed also sees the
	// whole span tree recorded.
	close(inv.done)
	if cb != nil {
		cb(inv)
	}
	return true
}

// Invoke is Use Scenario B (paper §VII-B): translate one Web-service
// invocation into the JSE model. The pipeline follows the paper's steps
// literally: file retrieval from the database, authentication through
// the Cyberaide agent, upload to the Grid, job description generation
// and submission — then the collector takes over.
func (o *OnServe) Invoke(serviceName string, args map[string]string) (*Invocation, error) {
	return o.InvokeCtx(serviceName, args, trace.SpanContext{})
}

// InvokeCtx is Invoke with a caller trace context: with Config.Trace
// set, the invocation records an "invoke" root span (under the caller's
// context when valid, a new root trace otherwise) with child spans for
// every pipeline stage, and propagates context to every grid service.
// With Trace nil this is Invoke — no spans, no allocations.
func (o *OnServe) InvokeCtx(serviceName string, args map[string]string, parent trace.SpanContext) (*Invocation, error) {
	root := o.parts.Tracing.StartSpan("invoke", parent)
	root.Set("service", serviceName)
	inv, err := o.invoke(serviceName, args, root)
	if err != nil {
		endSpan(root, err)
	}
	return inv, err
}

type principalKey struct{}

// WithPrincipal returns ctx carrying pr, the caller a guard in front of
// the SOAP container authenticated: a generated service's execute
// invokes as pr.
func WithPrincipal(ctx context.Context, pr tenant.Principal) context.Context {
	return context.WithValue(ctx, principalKey{}, pr)
}

// InvokeAs is the one admitted way in, taken by both doors (the portal's
// /api/invoke and a generated service's SOAP execute). With tenancy on,
// pr's invocation passes policy, rate limit and quota first, is audited
// exactly once, and holds its quota slot until it is terminal. With
// tenancy off it is InvokeCtx.
func (o *OnServe) InvokeAs(pr tenant.Principal, serviceName string, args map[string]string, parent trace.SpanContext) (*Invocation, error) {
	ctl := o.parts.Tenancy
	if ctl == nil {
		return o.InvokeCtx(serviceName, args, parent)
	}
	adm, err := ctl.Admit(pr, tenant.VerbInvoke, serviceName, parent)
	if err != nil {
		return nil, err
	}
	inv, err := o.InvokeCtx(serviceName, args, adm.ParentFor(parent))
	if err != nil {
		adm.Release()
		adm.Finish("", err)
		return nil, err
	}
	// The fair-share slot covers the invocation's whole grid lifetime,
	// not just the submit. One goroutine per admitted invocation mirrors
	// the stock poller's cost model.
	go func() {
		<-inv.DoneChan()
		adm.Release()
	}()
	adm.Finish(inv.Ticket, nil)
	return inv, nil
}

// endSpan closes one pipeline step's span, marking it failed when the
// step returned an error.
func endSpan(sp *trace.Span, err error) {
	if err != nil {
		sp.Error(err.Error())
	}
	sp.End()
}

// invoke runs the five steps — fetch, authenticate, stage, submit,
// collect — each under one span of root. An auth fault on a cached
// session invalidates it and the grid-facing steps run once more on a
// fresh logon.
//
// The fetch step runs here, where the paper puts it, unless the staging
// cache records a staged copy of the service somewhere: then most likely
// nothing will send the executable, and a stage that does fetches through
// the handle. Without Config.StagingCache nothing is ever recorded, so
// the paper profile always fetches here.
func (o *OnServe) invoke(serviceName string, args map[string]string, root *trace.Span) (*Invocation, error) {
	exe, err := o.openExecutable(serviceName, root)
	if err != nil {
		return nil, err
	}
	root.Set("user", exe.owner)
	auth, err := o.userAuth(exe.owner)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	staged := len(o.staged[serviceName]) > 0
	o.mu.Unlock()
	if !staged {
		exe.fetch()
	}
	sessID, cached, err := o.authenticate(exe.owner, auth, root)
	if err != nil {
		return nil, err
	}
	site, jobID, err := o.stageAndSubmit(sessID, exe, args, root.Context())
	if err != nil && cached && isSessionFault(err) {
		// The agent has refused the session, so nothing can use it
		// again: drop it from the cache and from the agent's table.
		o.invalidateSession(exe.owner, sessID)
		o.parts.Agent.Logout(sessID)
		if sessID, _, err = o.authenticate(exe.owner, auth, root); err != nil {
			return nil, err
		}
		site, jobID, err = o.stageAndSubmit(sessID, exe, args, root.Context())
	}
	if err != nil {
		o.releaseSession(sessID)
		return nil, err
	}
	inv := o.newInvocation(serviceName, exe.owner, sessID, site, jobID, root)
	o.collect.register(inv)
	return inv, nil
}

// authenticate is the logon step: "Before any use of the Grid is
// possible, an authentication is required and performed by the Cyberaide
// agent." With the session cache on, the previous logon's session is
// reused until its proxy nears expiry.
func (o *OnServe) authenticate(owner string, auth UserAuth, root *trace.Span) (sessID string, cached bool, err error) {
	sp := o.parts.Tracing.StartSpan("logon", root.Context())
	sessID, cached, err = o.gridSession(owner, auth, sp.Context())
	if err == nil {
		sp.Set("cached", strconv.FormatBool(cached))
	}
	endSpan(sp, err)
	return sessID, cached, err
}

// newInvocation issues the ticket and opens the collect span the
// collector's per-event spans hang under.
func (o *OnServe) newInvocation(serviceName, owner, sessID, site, jobID string, root *trace.Span) *Invocation {
	o.mu.Lock()
	o.seq++
	inv := &Invocation{
		Ticket:      newTicket(o.seq, serviceName),
		Service:     serviceName,
		JobID:       jobID,
		Site:        site,
		User:        owner,
		StartedAt:   time.Now(),
		sessionID:   sessID,
		onTerminal:  o.noteTerminal,
		rootSpan:    root,
		collectSpan: o.parts.Tracing.StartSpan("collect", root.Context()),
		state:       InvRunning,
		done:        make(chan struct{}),
	}
	o.invocations[inv.Ticket] = inv
	o.mu.Unlock()
	root.Set("ticket", inv.Ticket)
	root.Set("site", site)
	root.Set("job_id", jobID)
	return inv
}

// stageAndSubmit is the grid-facing half of Invoke: site choice, then
// the stage and submit steps under one agent session. Services with
// declared stage-in data may only run where the owner staged it, so later
// candidates are tried when submission reports a staging problem.
func (o *OnServe) stageAndSubmit(sessionID string, exe *executable, args map[string]string, tc trace.SpanContext) (site, jobID string, err error) {
	var sites [8]string
	candidates, err := o.pickSites(sessionID, exe, tc, sites[:])
	if err != nil {
		return "", "", err
	}
	for i, candidate := range candidates {
		st := o.parts.Tracing.StartSpan("stage", tc)
		st.Set("site", candidate)
		st.SetInt("bytes", int64(exe.row.RawSize))
		err = o.stageExecutable(sessionID, exe, candidate, st)
		endSpan(st, err)
		if err != nil {
			return "", "", err
		}
		// Job description generation + submission: "a job description is
		// generated by using the specified parameters and the name of the
		// executable. Finally, the job is submitted to the Grid." This is
		// the second CPU peak of Fig. 6.
		o.cfg.Probe.Burn(o.cfg.Cost.JobSubmit)
		desc := jsdl.Description{
			Name:       exe.service,
			Executable: exe.staged,
			Site:       candidate,
			Arguments:  args,
			WallTime:   o.cfg.InvocationTimeout,
			StageIn:    exe.stageIn,
		}
		sb := o.parts.Tracing.StartSpan("submit", tc)
		sb.Set("site", candidate)
		o.submit.Update(func(st *SubmitStats) { st.SubmitRPCs++ })
		if jobID, err = o.parts.Agent.WithTrace(sb.Context()).Submit(sessionID, &desc); err == nil {
			sb.Set("job_id", jobID)
			sb.End()
			return candidate, jobID, nil
		}
		endSpan(sb, err)
		// Only a missing stage-in file justifies trying the next site.
		if len(exe.stageIn) == 0 || i == len(candidates)-1 ||
			!strings.Contains(err.Error(), "not staged") {
			break
		}
	}
	return "", "", fmt.Errorf("onserve: submit: %w", err)
}

// gridSession returns an authenticated session ID for owner: the cached
// one when Config.SessionCache is on and the proxy is comfortably inside
// its lifetime, a fresh MyProxy logon otherwise. cached reports whether
// the ID came from the cache (and so may need the fault-retry path).
func (o *OnServe) gridSession(owner string, auth UserAuth, tc trace.SpanContext) (id string, cached bool, err error) {
	if id, ok := o.cachedSession(owner); ok {
		return id, true, nil
	}
	sess, err := o.parts.Agent.WithTrace(tc).Authenticate(auth.MyProxyUser, auth.Passphrase, cyberaide.DefaultProxyLifetime)
	if err != nil {
		return "", false, fmt.Errorf("onserve: authenticate %s: %w", owner, err)
	}
	if o.cfg.SessionCache {
		// Stop reusing a little before the proxy actually expires so
		// in-flight pipelines don't start on a session about to die.
		const lifetime = cyberaide.DefaultProxyLifetime
		o.mu.Lock()
		o.sessions[owner] = &ownerSession{id: sess.ID, expiresAt: time.Now().Add(lifetime - lifetime/10)}
		o.mu.Unlock()
	}
	return sess.ID, false, nil
}

// cachedSession returns the session owner's next invocation would reuse:
// the cached one (Config.SessionCache; nothing is ever cached without it)
// while its proxy is comfortably inside its lifetime.
func (o *OnServe) cachedSession(owner string) (id string, ok bool) {
	o.mu.Lock()
	s := o.sessions[owner]
	o.mu.Unlock()
	if s == nil || !time.Now().Before(s.expiresAt) {
		return "", false
	}
	return s.id, true
}

// releaseSession logs out the session one invocation logged on with, once
// nothing of that invocation will use it again: it is terminal, or failed
// before a ticket existed. With Config.SessionCache the session is the
// owner's, shared and kept, and this does nothing.
func (o *OnServe) releaseSession(id string) {
	if !o.cfg.SessionCache {
		o.parts.Agent.Logout(id)
	}
}

// invalidateSession drops owner's cached session if it still is id.
func (o *OnServe) invalidateSession(owner, id string) {
	o.mu.Lock()
	if s := o.sessions[owner]; s != nil && s.id == id {
		delete(o.sessions, owner)
	}
	o.mu.Unlock()
}

// isSessionFault reports whether err is an agent auth fault — the only
// failures a cached session justifies retrying with a fresh logon.
func isSessionFault(err error) bool {
	return errors.Is(err, cyberaide.ErrExpired) || errors.Is(err, cyberaide.ErrNoSession)
}

// pickSites asks the gatekeeper for scheduler statistics and orders the
// stageable sites best-first: by load alone (the paper's behaviour),
// or — with Config.DataAwarePlacement — by a score that also weighs
// chunk possession and the cold-transfer cost of the missing bytes.
// With Config.StatsTTL set, the snapshot is cached so heavy invocation
// traffic stops paying one SOAP round-trip per call; slightly stale
// load data only shifts which site wins, never correctness. The order
// is written into into[:0]: a caller's [8]string holds eight sites
// without an allocation.
func (o *OnServe) pickSites(sessionID string, exe *executable, tc trace.SpanContext, into []string) ([]string, error) {
	stats, err := o.gridStats(sessionID)
	if err != nil {
		return nil, fmt.Errorf("onserve: grid stats: %w", err)
	}
	var loads [8]siteLoad
	cands := o.siteFilter(exe.owner, o.stageableLoads(stats, loads[:0]))
	if len(cands) == 0 {
		return nil, fmt.Errorf("onserve: no stageable site available")
	}
	if o.cfg.DataAwarePlacement {
		return o.placeDataAware(sessionID, exe, cands, tc, into), nil
	}
	slices.SortFunc(cands, func(a, b siteLoad) int {
		return cmp.Or(cmp.Compare(a.load, b.load), strings.Compare(a.name, b.name))
	})
	out := into[:0]
	for _, c := range cands {
		out = append(out, c.name)
	}
	return out, nil
}

// siteLoad is one stageable site's load term: committed plus queued
// work per slot.
type siteLoad struct {
	name string
	load float64
}

// siteFilter drops candidate sites the owner's tenancy policy
// excludes. The principal here is the service's owner, not the
// invoking caller: placement is a property of whose executable runs
// where, and the core never sees the caller's key. With tenancy off
// (or an unconstrained owner) the slice passes through untouched.
func (o *OnServe) siteFilter(owner string, cands []siteLoad) []siteLoad {
	ctl := o.parts.Tenancy
	if ctl == nil || owner == "" {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		if ctl.SiteAllowed(owner, c.name) {
			kept = append(kept, c)
		}
	}
	return kept
}

// stageableLoads appends to cands the load terms of the sites in a
// scheduler-statistics snapshot the agent can stage to (order as reported).
func (o *OnServe) stageableLoads(stats []gridsim.SiteStats, cands []siteLoad) []siteLoad {
	for _, st := range stats {
		if _, ok := o.parts.Agent.SiteURL(st.Name); !ok {
			continue // no staging endpoint for this site
		}
		// A drained site (zero slots) counts as fully loaded: dividing by
		// Slots would yield NaN/Inf and corrupt the sort order.
		load := math.Inf(1)
		if st.Slots > 0 {
			load = float64(st.Slots-st.FreeSlots+st.Queued) / float64(st.Slots)
		}
		cands = append(cands, siteLoad{name: st.Name, load: load})
	}
	return cands
}

// gridStats fetches (or serves from the TTL cache) the gatekeeper's
// scheduler statistics. With the TTL on, concurrent callers that all
// observe an expired snapshot collapse onto one in-flight fetch instead
// of stampeding the gatekeeper with identical requests; a leader
// failure wakes the waiters, and the next one through retries.
func (o *OnServe) gridStats(sessionID string) ([]gridsim.SiteStats, error) {
	ttl := o.cfg.StatsTTL
	if ttl <= 0 {
		// Paper-faithful: one scheduler round-trip per invocation.
		o.submit.Update(func(st *SubmitStats) { st.StatsRPCs++ })
		return o.parts.Agent.GridStats(sessionID)
	}
	stats, joined, err := o.statsFlights.do(&o.mu, struct{}{}, func() ([]gridsim.SiteStats, bool) {
		return o.stats, o.stats != nil && time.Since(o.statsAt) < ttl
	}, func() ([]gridsim.SiteStats, error) {
		o.submit.Update(func(st *SubmitStats) { st.StatsRPCs++ })
		stats, err := o.parts.Agent.GridStats(sessionID)
		if err == nil {
			o.mu.Lock()
			o.stats, o.statsAt = stats, time.Now()
			o.mu.Unlock()
		}
		return stats, err
	})
	if joined {
		o.submit.Update(func(st *SubmitStats) { st.StatsCollapsed++ })
	}
	return stats, err
}

// stageExecutable makes sure the service's executable is present at the
// target site. With Config.CoalesceStaging on, transfers single-flight
// per service|site, and the contract is about overlap, not about bursts:
// an invocation that arrives while a transfer for its key is in flight
// blocks on that transfer's result instead of starting its own; one that
// arrives after the flight has landed starts a new one (StagingCache is
// what spares that). A cold burst therefore costs one WAN transfer per
// site exactly when its arrivals overlap the leader's transfer — a
// property of timing the caller does not control. A leader failure
// wakes the waiters and exactly one of them takes over (each failed
// flight releases its leader with the error), so the stampede can never
// come back through the retry path.
func (o *OnServe) stageExecutable(sessionID string, exe *executable, site string, sp *trace.Span) error {
	if !o.cfg.CoalesceStaging {
		return o.stageExecutableOnce(sessionID, exe, site, sp)
	}
	hit := false // a staging-cache hit is answered before any flight
	_, joined, err := o.stagingFlights.do(&o.mu, siteKey{exe.service, site}, func() (struct{}, bool) {
		hit = o.staged[exe.service][site] != ""
		return struct{}{}, hit
	}, func() (struct{}, error) {
		return struct{}{}, o.stageExecutableOnce(sessionID, exe, site, sp)
	})
	if hit {
		sp.Set("cache", "hit")
	}
	if joined {
		o.submit.Update(func(st *SubmitStats) { st.UploadsCoalesced++ })
		sp.Set("coalesced", "true")
	}
	return err
}

// stageExecutableOnce performs one staging transfer: through the
// staging cache and site-to-site replication when enabled, otherwise by
// uploading across the WAN — the paper's behaviour, where files "will
// even be reloaded when executed a 2nd time".
func (o *OnServe) stageExecutableOnce(sessionID string, exe *executable, site string, sp *trace.Span) error {
	if o.cfg.StagingCache {
		o.mu.Lock()
		sites := o.staged[exe.service]
		cached := sites[site]
		// Not at the target site, but maybe at a sibling: a GridFTP
		// third-party transfer moves it site-to-site without re-crossing
		// the appliance's WAN link.
		replicateFrom := ""
		if cached == "" {
			replicateFrom = replicaSource(sites)
		}
		o.mu.Unlock()
		if cached != "" {
			sp.Set("cache", "hit")
			return nil
		}
		if replicateFrom != "" {
			sp.Set("replicated_from", replicateFrom)
			sum, err := o.parts.Agent.WithTrace(sp.Context()).Replicate(sessionID, replicateFrom, site, exe.staged)
			if err == nil {
				o.noteStaged(exe.service, site, sum)
				return nil
			}
			// A session fault would doom the fresh upload too: surface it
			// so Invoke's invalidate-and-retry path fires instead of
			// burning a second WAN round-trip on a dead session.
			if isSessionFault(err) {
				return fmt.Errorf("onserve: stage executable: %w", err)
			}
			// On any other replication failure, fall through to a fresh
			// upload.
		}
	}
	checksum, err := o.uploadExecutable(sessionID, exe, site, sp)
	if err != nil {
		return fmt.Errorf("onserve: stage executable: %w", err)
	}
	if o.cfg.StagingCache {
		o.noteStaged(exe.service, site, checksum)
	}
	return nil
}

// noteStaged records in the staging cache that site holds service's
// executable with the given checksum.
func (o *OnServe) noteStaged(service, site, checksum string) {
	o.mu.Lock()
	sites := o.staged[service]
	if sites == nil {
		sites = make(map[string]string)
		o.staged[service] = sites
	}
	sites[site] = checksum
	o.mu.Unlock()
}

// replicaSource picks the site a staged replica is pulled from, out of
// the sites the staging cache records for one service. The smallest name
// wins so the choice is deterministic (map iteration order is not), which
// keeps replication fan-out stable and testable.
func replicaSource(sites map[string]string) string {
	best := ""
	for site := range sites {
		if best == "" || site < best {
			best = site
		}
	}
	return best
}

// noteTerminal records a newly terminal invocation and prunes the
// oldest terminal tickets beyond the retention cap, so sustained traffic
// cannot grow the ticket map without bound. Pruned invocations stay in
// Monitoring through the retained tallies.
func (o *OnServe) noteTerminal(inv *Invocation) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.termOrder = append(o.termOrder, inv.Ticket)
	for len(o.termOrder) > o.retention {
		oldest := o.termOrder[0]
		o.termOrder = o.termOrder[1:]
		old, ok := o.invocations[oldest]
		if !ok {
			continue
		}
		o.termTallies[old.State()]++
		delete(o.invocations, oldest)
	}
}

// Invocation resolves a ticket.
func (o *OnServe) Invocation(ticket string) (*Invocation, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	inv, ok := o.invocations[ticket]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTicket, ticket)
	}
	return inv, nil
}

// CancelAs is the one admitted way to cancel, taken by both doors (the
// portal's /api/cancel and a generated service's SOAP cancel). With
// tenancy on, pr must be admitted to cancel the ticket's service, and the
// cancel is audited exactly once. With tenancy off it is CancelInvocation.
func (o *OnServe) CancelAs(pr tenant.Principal, ticket string, parent trace.SpanContext) error {
	inv, err := o.Invocation(ticket)
	if err != nil {
		return err
	}
	var adm *tenant.Admission // nil-safe: tenancy off
	if ctl := o.parts.Tenancy; ctl != nil {
		if adm, err = ctl.Admit(pr, tenant.VerbCancel, inv.Service, parent); err != nil {
			return err
		}
	}
	err = o.CancelInvocation(ticket)
	adm.Finish(ticket, err)
	return err
}

// CancelInvocation cancels the underlying Grid job; the poller records
// the terminal state.
func (o *OnServe) CancelInvocation(ticket string) error {
	inv, err := o.Invocation(ticket)
	if err != nil {
		return err
	}
	if inv.State().Terminal() {
		return nil
	}
	if _, err := o.parts.Agent.Cancel(inv.sessionID, inv.JobID); err != nil && !inv.State().Terminal() {
		return fmt.Errorf("onserve: cancel %s: %w", inv.JobID, err)
	}
	return nil
}

// InvocationOutputFile fetches a named output artifact of the
// invocation's Grid job through the agent: on the invocation's session
// while it has one, on a logon of its own once that was released.
func (o *OnServe) InvocationOutputFile(ticket, name string) ([]byte, error) {
	inv, err := o.Invocation(ticket)
	if err != nil {
		return nil, err
	}
	data, err := o.parts.Agent.OutputFile(inv.sessionID, inv.JobID, name)
	if !errors.Is(err, cyberaide.ErrNoSession) {
		return data, err
	}
	auth, err := o.userAuth(inv.User)
	if err != nil {
		return nil, err
	}
	sessID, _, err := o.gridSession(inv.User, auth, trace.SpanContext{})
	if err != nil {
		return nil, err
	}
	defer o.releaseSession(sessID)
	return o.parts.Agent.OutputFile(sessID, inv.JobID, name)
}

// Invocations lists tickets issued so far, ordered by ticket (the
// sequence-number prefix makes that issue order); map iteration order
// must not leak into listings.
func (o *OnServe) Invocations() []*Invocation {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Invocation, 0, len(o.invocations))
	for _, inv := range o.invocations {
		out = append(out, inv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ticket < out[j].Ticket })
	return out
}

// Monitoring is the appliance's observability snapshot: per-service
// request counters from the SOAP container plus invocation tallies by
// state — the "monitored ... like a normal Web service" requirement of
// paper §IV.
type Monitoring struct {
	Services    []soap.ServiceStats `json:"services"`
	Invocations map[string]int      `json:"invocations"`
	// DB surfaces the blob store's WAL and compaction counters — per
	// shard too when the database is persistent.
	DB blobdb.Stats `json:"db"`
}

// Monitoring snapshots the middleware's counters. Tallies cover both the
// invocations still resolvable by ticket and those already pruned by the
// retention cap.
func (o *OnServe) Monitoring() Monitoring {
	m := Monitoring{
		Services:    o.parts.Container.Stats(),
		Invocations: map[string]int{},
		DB:          o.parts.DB.Stats(),
	}
	o.mu.Lock()
	for st, n := range o.termTallies {
		m.Invocations[string(st)] += n
	}
	o.mu.Unlock()
	for _, inv := range o.Invocations() {
		m.Invocations[string(inv.State())]++
	}
	return m
}

// ExecuteAndWait is the synchronous convenience used by examples: invoke,
// block until terminal, return the final output.
func (o *OnServe) ExecuteAndWait(serviceName string, args map[string]string) (string, error) {
	inv, err := o.Invoke(serviceName, args)
	if err != nil {
		return "", err
	}
	<-inv.DoneChan()
	if st := inv.State(); st != InvDone {
		return inv.Output(), fmt.Errorf("onserve: invocation %s ended %s: %s", inv.Ticket, st, inv.Message())
	}
	return inv.Output(), nil
}
