package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/gram"
	"repro/internal/jsdl"
	"repro/internal/jsonwarm"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/wsdl"
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

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(map[string]string{}, []wsdl.ParamDef{}) }

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
// invocation into the JSE model, the paper's steps in its order.
func (o *OnServe) Invoke(serviceName string, args map[string]string) (*Invocation, error) {
	return o.InvokeCtx(serviceName, args, trace.SpanContext{})
}

// InvokeCtx is Invoke under a caller trace context: with Config.Trace
// set, an "invoke" root span (a new trace if the context is invalid)
// with a child per step. With Trace nil this is Invoke, at no cost.
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
// collect — each under one span of root; if the grid refuses a session
// the authenticate step would hand out again, the grid-facing steps run
// once more on a fresh logon. The fetch runs here, where the paper puts
// it, unless the stage step records a staged copy of the service: then
// most likely nothing will send the executable, and a stage that does
// fetches through the handle.
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
	if !o.stage.staged(serviceName) {
		exe.fetch()
	}
	sessID, reused, err := o.authenticate(exe.owner, auth, root)
	if err != nil {
		return nil, err
	}
	inv := o.newInvocation(serviceName, exe.owner, root)
	err = o.stageAndSubmit(inv, sessID, exe, args)
	if err != nil && o.auth.end(exe.owner, sessID, reused, err) {
		if sessID, _, err = o.authenticate(exe.owner, auth, root); err != nil {
			return nil, err
		}
		if err = o.stageAndSubmit(inv, sessID, exe, args); err != nil {
			o.auth.end(exe.owner, sessID, false, err)
		}
	}
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.invocations[inv.Ticket] = inv
	o.mu.Unlock()
	root.Set("site", inv.Site)
	root.Set("job_id", inv.JobID)
	return inv, nil
}

// authenticate is the logon step under its span.
func (o *OnServe) authenticate(owner string, auth UserAuth, root *trace.Span) (string, bool, error) {
	sp := o.parts.Tracing.StartSpan("logon", root.Context())
	sessID, reused, err := o.auth.session(owner, auth, sp.Context())
	if err == nil {
		sp.Set("cached", strconv.FormatBool(reused))
	}
	endSpan(sp, err)
	return sessID, reused, err
}

// newInvocation issues the ticket, which resolves once the submit
// succeeded, and opens the collect span the per-event spans hang under.
func (o *OnServe) newInvocation(serviceName, owner string, root *trace.Span) *Invocation {
	o.mu.Lock()
	o.seq++
	inv := &Invocation{
		Ticket:      newTicket(o.seq, serviceName),
		Service:     serviceName,
		User:        owner,
		StartedAt:   time.Now(),
		onTerminal:  o.noteTerminal,
		rootSpan:    root,
		collectSpan: o.parts.Tracing.StartSpan("collect", root.Context()),
		state:       InvRunning,
		done:        make(chan struct{}),
	}
	o.mu.Unlock()
	root.Set("ticket", inv.Ticket)
	return inv
}

// stageAndSubmit is the grid-facing half of Invoke: site choice, then
// the stage and submit steps under one agent session. Services with
// declared stage-in data may only run where the owner staged it, so later
// candidates are tried when submission reports a staging problem.
// The job is named (jobID) and registered under the name before its
// submit, which is sent once more under it if it failed in transport: it
// may have reached the grid, which answers with the job it holds.
func (o *OnServe) stageAndSubmit(inv *Invocation, sessionID string, exe *executable, args map[string]string) (err error) {
	tc := inv.rootSpan.Context()
	var sites [8]string
	candidates, err := o.pickSites(sessionID, exe, tc, sites[:])
	if err != nil {
		return err
	}
	for i, candidate := range candidates {
		st := o.parts.Tracing.StartSpan("stage", tc)
		st.Set("site", candidate)
		st.SetInt("bytes", int64(exe.row.RawSize))
		err = o.stageExecutable(sessionID, exe, candidate, st)
		endSpan(st, err)
		if err != nil {
			return err
		}
		// Job description generation + submission: "a job description is
		// generated by using the specified parameters and the name of the
		// executable. Finally, the job is submitted to the Grid." This is
		// the second CPU peak of Fig. 6.
		o.cfg.Probe.JobSubmit()
		inv.sessionID, inv.Site, inv.JobID = sessionID, candidate, jobID(inv.Ticket, candidate)
		desc := jsdl.Description{
			Name:       exe.service,
			ID:         inv.JobID[len(candidate)+1:],
			Executable: exe.staged,
			Site:       candidate,
			Arguments:  args,
			WallTime:   o.cfg.InvocationTimeout,
			StageIn:    exe.stageIn,
		}
		sb := o.parts.Tracing.StartSpan("submit", tc)
		sb.Set("site", candidate)
		submitted := o.collect.register(inv)
		agent := o.parts.Agent.WithTrace(sb.Context())
		for range 2 {
			o.submit.Update(func(st *SubmitStats) { st.SubmitRPCs++ })
			if _, err = agent.Submit(sessionID, &desc); !errors.Is(err, gram.ErrNoReply) {
				break
			}
		}
		submitted(err == nil)
		if err == nil {
			sb.Set("job_id", inv.JobID)
			sb.End()
			return nil
		}
		endSpan(sb, err)
		// Only a missing stage-in file justifies trying the next site.
		if len(exe.stageIn) == 0 || i == len(candidates)-1 || !errors.Is(err, gram.ErrNotStaged) {
			break
		}
	}
	return fmt.Errorf("onserve: submit: %w", err)
}

// jobID names the job a ticket submits to site: "<site>:" and the
// ticket's 48 random bits in ten base-32 digits, which keep it apart
// across a fleet's appliances as they keep the ticket. Ten is the width of
// a site-assigned job-NNNNNN, so every poll, frame and reply keeps its
// size, and no '-' makes it one of those.
func jobID(ticket, site string) string {
	n, _ := strconv.ParseUint(ticket[len(ticket)-12:], 16, 64)
	var buf [64]byte
	id := append(append(buf[:0], site...), ':')
	for range 10 {
		id, n = append(id, "0123456789abcdefghijklmnopqrstuv"[n&31]), n>>5
	}
	return string(id)
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
	sessID, _, err := o.auth.session(inv.User, auth, trace.SpanContext{})
	if err != nil {
		return nil, err
	}
	defer o.auth.end(inv.User, sessID, false, nil)
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
