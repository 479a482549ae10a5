// Package tenant is the multi-tenant control plane: per-owner API
// keys, a policy evaluator, token-bucket rate limits, fair-share
// concurrency quotas, and an append-only audit log.
//
// The admission pipeline runs in a fixed order — key, policy, rate
// limit, quota, audit — chosen so each stage only spends what the
// previous one justified: authentication is a header lookup and needs
// no body; policy is a pure function and must run before any tokens
// are consumed (a forbidden caller should not drain its own budget);
// the rate limiter is an immediate-deny damper that protects the
// quota's queue from being flooded; the quota is the only stage that
// blocks, and it wakes waiters in deficit-round-robin order so a
// saturating tenant cannot starve the others; audit records the final
// outcome exactly once, whichever stage decided it.
//
// The whole subsystem is an opt-in knob (core.Config.Tenancy,
// cmd/onserve -keys-file). With it off the portal's wire
// behaviour is byte-identical to an appliance built without it.
package tenant

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/errcode"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Verb names an auditable action class.
type Verb string

const (
	VerbUpload Verb = "upload"
	VerbInvoke Verb = "invoke"
	VerbCancel Verb = "cancel"
	VerbDelete Verb = "delete"
)

// UnknownOwner labels audit records and counters for requests whose
// key did not resolve.
const UnknownOwner = "unknown"

// Admission failures, ordered by pipeline stage.
var (
	ErrUnauthorized = errors.New("tenant: missing or unknown API key")
	ErrForbidden    = errors.New("tenant: policy forbids this action")
	ErrRateLimited  = errors.New("tenant: rate limit exceeded")
	ErrSaturated    = errors.New("tenant: concurrency quota exhausted")
)

// OwnerConfig is one tenant's declarative record.
type OwnerConfig struct {
	Name string `json:"name"`
	// Weight is the DRR quantum for quota wakeups (default 1).
	Weight int `json:"weight,omitempty"`
	// MaxInFlight caps this owner's concurrent invocations; 0 falls
	// back to Limits.OwnerMaxInFlight (0 there = unlimited).
	MaxInFlight int `json:"max_inflight,omitempty"`
	// Rates maps verb -> tokens/second (0/absent = unlimited);
	// Bursts maps verb -> bucket depth (default max(1, rate)).
	Rates  map[string]float64 `json:"rates,omitempty"`
	Bursts map[string]float64 `json:"bursts,omitempty"`
	Policy Policy             `json:"policy,omitempty"`
}

// KeyConfig binds an API key to an owner. Keys are opaque bearer
// tokens (1..128 visible-ASCII bytes).
type KeyConfig struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
}

// LimitsConfig holds appliance-wide admission bounds.
type LimitsConfig struct {
	// MaxInFlight caps concurrent invocations across all owners
	// (0 = unlimited).
	MaxInFlight int `json:"max_inflight,omitempty"`
	// OwnerMaxInFlight is the default per-owner cap (0 = unlimited).
	OwnerMaxInFlight int `json:"owner_max_inflight,omitempty"`
	// QueueDepth bounds each owner's quota wait queue (default 64).
	QueueDepth int `json:"queue_depth,omitempty"`
	// QueueTimeoutMS bounds a queued admit's wait (default 30000).
	QueueTimeoutMS int `json:"queue_timeout_ms,omitempty"`
}

// AuditConfig sizes the audit ring and its optional archive.
type AuditConfig struct {
	// Ring is the in-memory record capacity (default 4096).
	Ring int `json:"ring,omitempty"`
	// Persist archives every record into blobdb when the controller
	// was given a DB.
	Persist bool `json:"persist,omitempty"`
}

// Config is the declarative control-plane document, the JSON shape
// cmd/onserve -keys-file loads.
type Config struct {
	Owners []OwnerConfig `json:"owners,omitempty"`
	Keys   []KeyConfig   `json:"keys,omitempty"`
	Limits LimitsConfig  `json:"limits,omitempty"`
	Audit  AuditConfig   `json:"audit,omitempty"`
}

// ParseConfig decodes and validates a Config document.
func ParseConfig(blob []byte) (Config, error) {
	var cfg Config
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return Config{}, fmt.Errorf("tenant: bad config: %w", err)
	}
	seen := make(map[string]bool, len(cfg.Owners))
	for _, o := range cfg.Owners {
		if o.Name == "" {
			return Config{}, errors.New("tenant: owner with empty name")
		}
		if seen[o.Name] {
			return Config{}, fmt.Errorf("tenant: duplicate owner %q", o.Name)
		}
		seen[o.Name] = true
	}
	for _, k := range cfg.Keys {
		if _, ok := ParseKeyHeader(k.Key); !ok {
			return Config{}, fmt.Errorf("tenant: invalid key for owner %q (need 1..%d visible-ASCII bytes)", k.Owner, maxKeyLen)
		}
		if k.Owner == "" {
			return Config{}, errors.New("tenant: key with empty owner")
		}
	}
	return cfg, nil
}

// LoadConfig reads a keys file from disk.
func LoadConfig(path string) (Config, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	return ParseConfig(blob)
}

// Options carries the controller's runtime dependencies.
type Options struct {
	// Tracer, when set, emits a tenant.admit span per admission with
	// wait-time attributes.
	Tracer *trace.Tracer
	// DB, when set together with Config.Audit.Persist, archives audit
	// records into the tenant_audit table.
	DB *blobdb.DB
}

// ownerState is an owner's live record: config plus counters (the quota
// holds its gauges, InFlight and QueueDepth).
type ownerState struct {
	cfg    OwnerConfig
	counts metrics.Block[OwnerStats]
}

// Controller is the live control plane. One instance guards one
// appliance; a fleet runs one per shard (the gateway forwards the
// key header, per-shard enforcement stays authoritative).
type Controller struct {
	tracer *trace.Tracer
	keys   keyset
	rate   *rateLimiter
	quota  *quota
	audit  *auditLog
	limits LimitsConfig

	mu     sync.RWMutex
	owners map[string]*ownerState
}

// NewController builds a controller from a validated Config.
func NewController(cfg Config, opts Options) (*Controller, error) {
	if cfg.Limits.QueueDepth == 0 {
		cfg.Limits.QueueDepth = 64
	}
	if cfg.Limits.QueueTimeoutMS == 0 {
		cfg.Limits.QueueTimeoutMS = 30_000
	}
	var db *blobdb.DB
	if cfg.Audit.Persist {
		db = opts.DB
	}
	c := &Controller{
		tracer: opts.Tracer,
		rate:   newRateLimiter(),
		quota: newQuota(cfg.Limits.MaxInFlight, cfg.Limits.QueueDepth,
			time.Duration(cfg.Limits.QueueTimeoutMS)*time.Millisecond),
		audit:  newAuditLog(cfg.Audit.Ring, db),
		limits: cfg.Limits,
		owners: make(map[string]*ownerState),
	}
	for _, o := range cfg.Owners {
		if o.Name == "" {
			return nil, errors.New("tenant: owner with empty name")
		}
		c.SetOwner(o)
	}
	for _, k := range cfg.Keys {
		if err := c.SetKey(k.Key, k.Owner); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SetOwner registers or replaces an owner's config.
func (c *Controller) SetOwner(cfg OwnerConfig) {
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	max := cfg.MaxInFlight
	if max == 0 {
		max = c.limits.OwnerMaxInFlight
	}
	c.mu.Lock()
	st := c.owners[cfg.Name]
	if st == nil {
		st = &ownerState{}
		c.owners[cfg.Name] = st
	}
	st.cfg = cfg
	c.mu.Unlock()
	c.quota.configure(cfg.Name, max, cfg.Weight)
}

// SetKey registers (or rotates) an API key for owner, creating a
// default owner record if none exists. Safe mid-burst: in-flight
// requests authenticated under the old key keep their admission.
func (c *Controller) SetKey(key, owner string) error {
	tok, ok := ParseKeyHeader(key)
	if !ok {
		return fmt.Errorf("tenant: invalid key for owner %q", owner)
	}
	if owner == "" {
		return errors.New("tenant: key with empty owner")
	}
	c.mu.RLock()
	_, known := c.owners[owner]
	c.mu.RUnlock()
	if !known {
		c.SetOwner(OwnerConfig{Name: owner})
	}
	c.keys.set(tok, owner)
	return nil
}

// Principal is an authenticated caller.
type Principal struct {
	Owner string
}

// Authenticate resolves the X-Grid-Key header value to a principal.
// It reads nothing but the header — the portal calls it before any
// body bytes are consumed — and audits the denial when the key is
// missing or unknown.
func (c *Controller) Authenticate(header string, verb Verb) (Principal, error) {
	if tok, ok := ParseKeyHeader(header); ok {
		if owner, ok := c.keys.lookup(tok); ok {
			return Principal{Owner: owner}, nil
		}
	}
	// The denial gets its own root span — there is no request trace yet
	// this early in the pipeline — so even unauthenticated attempts leave
	// a resolvable trace ID in the audit log.
	sp := c.tracer.StartSpan("tenant.admit", trace.SpanContext{})
	sp.Set("tenant.owner", UnknownOwner)
	sp.Set("tenant.verb", string(verb))
	sp.Set("tenant.outcome", "denied")
	sp.Error(ErrUnauthorized.Error())
	sp.End()
	c.deny(UnknownOwner, verb, "", errcode.Unauthorized, traceID(sp.Context()), 0, 0)
	return Principal{}, ErrUnauthorized
}

// state returns owner's live record, creating a default one so keys
// registered without an owners entry still get counters and quota.
func (c *Controller) state(owner string) *ownerState {
	c.mu.RLock()
	st := c.owners[owner]
	c.mu.RUnlock()
	if st != nil {
		return st
	}
	c.SetOwner(OwnerConfig{Name: owner})
	c.mu.RLock()
	st = c.owners[owner]
	c.mu.RUnlock()
	return st
}

// SiteAllowed reports whether owner's policy permits staging or
// running on site. Unknown owners (services published before tenancy
// was configured) are unconstrained.
func (c *Controller) SiteAllowed(owner, site string) bool {
	c.mu.RLock()
	st := c.owners[owner]
	c.mu.RUnlock()
	if st == nil {
		return true
	}
	return st.cfg.Policy.SiteAllowed(site)
}

// Allows answers the pure policy question without admitting anything:
// the SOAP container guard asks it of every call, whatever its
// operation, before an execute is admitted.
func (c *Controller) Allows(owner string, verb Verb, service string) bool {
	c.mu.RLock()
	st := c.owners[owner]
	c.mu.RUnlock()
	if st == nil {
		return true
	}
	return st.cfg.Policy.Allows(verb, service)
}

// Admission is one admitted action. The caller must call Finish
// exactly once (writing the audit record) and, for invocations,
// Release when the invocation reaches a terminal state (returning the
// quota slot). All methods are nil-safe so call sites need no
// tenancy-enabled branches.
type Admission struct {
	ctl     *Controller
	owner   string
	verb    Verb
	service string
	sctx    trace.SpanContext
	start   time.Time
	wait    time.Duration
	queued  bool
	slot    bool

	mu       sync.Mutex
	finished bool
	released bool
}

// Admit runs policy, rate limit, and (for invocations) the fair-share
// quota for an authenticated principal. Denials are audited
// immediately; the returned Admission audits on Finish. The
// tenant.admit span covers exactly the admission (its duration is the
// quota wait), and the span's context is the parent handed to the
// invocation so audit trace IDs resolve to full waterfalls.
func (c *Controller) Admit(pr Principal, verb Verb, service string, parent trace.SpanContext) (*Admission, error) {
	st := c.state(pr.Owner)
	start := time.Now()
	sp := c.tracer.StartSpan("tenant.admit", parent)
	sp.Set("tenant.owner", pr.Owner)
	sp.Set("tenant.verb", string(verb))
	if service != "" {
		sp.Set("tenant.service", service)
	}
	deny := func(code string, err error, wait time.Duration) (*Admission, error) {
		sp.Set("tenant.outcome", "denied")
		sp.Error(err.Error())
		sp.End()
		c.deny(pr.Owner, verb, service, code, traceID(sp.Context()), wait, time.Since(start))
		return nil, err
	}

	if !st.cfg.Policy.Allows(verb, service) {
		st.counts.Update(func(o *OwnerStats) { o.Denied++ })
		return deny(errcode.Forbidden, ErrForbidden, 0)
	}
	if !c.rate.allow(pr.Owner, verb, st.cfg.Rates[string(verb)], st.cfg.Bursts[string(verb)]) {
		st.counts.Update(func(o *OwnerStats) { o.RateLimited++ })
		return deny(errcode.RateLimited, ErrRateLimited, 0)
	}
	var (
		queued bool
		waited time.Duration
		slot   bool
	)
	if verb == VerbInvoke {
		var err error
		queued, waited, err = c.quota.acquire(pr.Owner)
		if err != nil {
			st.counts.Update(func(o *OwnerStats) {
				o.Denied++
				if queued {
					o.Queued++
				}
			})
			return deny(errcode.QuotaExceeded, ErrSaturated, waited)
		}
		slot = true
	}
	st.counts.Update(func(o *OwnerStats) {
		o.Admitted++
		if queued {
			o.Queued++
		}
	})
	sp.SetInt("tenant.wait_us", waited.Microseconds())
	if queued {
		sp.Set("tenant.queued", "true")
	}
	sp.End()
	return &Admission{
		ctl:     c,
		owner:   pr.Owner,
		verb:    verb,
		service: service,
		sctx:    sp.Context(),
		start:   start,
		wait:    waited,
		queued:  queued,
		slot:    slot,
	}, nil
}

// deny writes the audit record for a rejected action and bumps the
// per-owner drop counter when the ring overflowed.
func (c *Controller) deny(owner string, verb Verb, service, code, traceID string, wait, latency time.Duration) {
	if owner == UnknownOwner {
		c.state(owner).counts.Update(func(o *OwnerStats) { o.Denied++ })
	}
	c.record(Record{
		Owner:     owner,
		Verb:      string(verb),
		Service:   service,
		Outcome:   "denied",
		Code:      code,
		TraceID:   traceID,
		WaitMS:    ms(wait),
		LatencyMS: ms(latency),
	})
}

// record appends to the audit log, charging overflow drops.
func (c *Controller) record(r Record) {
	if droppedOwner, dropped := c.audit.append(r); dropped {
		c.state(droppedOwner).counts.Update(func(o *OwnerStats) { o.AuditDropped++ })
	}
}

// ParentFor picks the trace parent for the admitted work: the
// tenant.admit span when one was recorded, otherwise the caller's
// inbound context unchanged — so with tenancy (or tracing) off the
// wire-visible trace topology is untouched.
func (a *Admission) ParentFor(tc trace.SpanContext) trace.SpanContext {
	if a == nil || !a.sctx.Valid() {
		return tc
	}
	return a.sctx
}

// Release returns the quota slot. Idempotent and nil-safe; for
// invocations the portal defers it until the invocation is terminal.
func (a *Admission) Release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	doit := a.slot && !a.released
	a.released = true
	a.mu.Unlock()
	if doit {
		a.ctl.quota.release(a.owner)
	}
}

// Finish writes the admission's audit record with the handler's
// outcome. Exactly the first call records; later calls are no-ops.
func (a *Admission) Finish(ticket string, err error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		return
	}
	a.finished = true
	a.mu.Unlock()
	outcome, code := "ok", ""
	if err != nil {
		outcome, code = "error", errcode.Internal
	}
	a.ctl.record(Record{
		Owner:     a.owner,
		Verb:      string(a.verb),
		Service:   a.service,
		Outcome:   outcome,
		Code:      code,
		Ticket:    ticket,
		TraceID:   traceID(a.sctx),
		WaitMS:    ms(a.wait),
		LatencyMS: ms(time.Since(a.start)),
	})
}

// Audit returns up to n audit records, newest first, optionally
// filtered by owner ("" = all).
func (c *Controller) Audit(owner string, n int) []Record {
	return c.audit.query(owner, n)
}

// AuditDropped reports how many records the ring has evicted.
func (c *Controller) AuditDropped() uint64 {
	_, dropped := c.audit.counts()
	return dropped
}

// Stats snapshots the control plane's counters and gauges.
func (c *Controller) Stats() Stats {
	total, waiting, perOwner := c.quota.gauges()
	records, dropped := c.audit.counts()
	s := Stats{
		Keys:         c.keys.size(),
		AuditDropped: dropped,
		AuditRecords: records,
		InFlight:     total,
		QueueDepth:   waiting,
		Owners:       make(map[string]OwnerStats),
	}
	c.mu.RLock()
	for name, st := range c.owners {
		o := st.counts.Snapshot()
		if g, ok := perOwner[name]; ok {
			o.InFlight, o.QueueDepth = g[0], g[1]
		}
		s.Owners[name] = o
		s.Admitted += o.Admitted
		s.Denied += o.Denied
		s.RateLimited += o.RateLimited
		s.Queued += o.Queued
	}
	c.mu.RUnlock()
	return s
}

// ms converts a duration to float milliseconds for JSON.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// traceID renders the 32-hex trace ID ("" when tracing is off).
func traceID(sc trace.SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return hex.EncodeToString(sc.TraceID[:])
}
