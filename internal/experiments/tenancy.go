package experiments

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/tenant"
)

// Tenancy ablation defaults.
const (
	// tenancyBurst is the hog's invocation burst when the caller passes 0.
	tenancyBurst = 1000
	// tenancyProbes is how many paced victim invocations sample latency
	// while the burst is in flight.
	tenancyProbes = 25
	// tenancyWarmup sizes the solo-latency baseline taken before the
	// burst starts.
	tenancyWarmup = 5
	// tenancySlack multiplies the victim's solo p50 into the fair-share
	// bound: with the hog capped at its in-flight quota the victim's
	// probes never queue, so p99 stays within a small factor of solo.
	tenancySlack = 3.0
)

// tenancyConfig is the two-tenant control-plane setup the ablation
// enforces: the victim gets the higher weight and the hog a hard
// in-flight cap well below the global one, so a saturating hog can
// never starve the victim of admission slots.
func tenancyConfig() *tenant.Config {
	return &tenant.Config{
		Owners: []tenant.OwnerConfig{
			{Name: "victim", Weight: 4, MaxInFlight: 4},
			{Name: "hog", Weight: 1, MaxInFlight: 8},
		},
		Keys: []tenant.KeyConfig{
			{Key: "victim-secret", Owner: "victim"},
			{Key: "hog-secret", Owner: "hog"},
		},
		Limits: tenant.LimitsConfig{
			MaxInFlight:    16,
			QueueDepth:     64,
			QueueTimeoutMS: 60000,
		},
	}
}

// AblationTenancy is the noisy-neighbor study: one hog tenant fires a
// large invocation burst at the appliance while a victim tenant keeps
// issuing paced probe invocations of its own service. Without the
// control plane the burst monopolises the grid and the victim's p99
// invoke latency blows past any bound; with tenancy on, the hog's
// in-flight quota caps how much grid the burst can hold, queued
// admissions beyond the bound are shed with 429s, and the victim's p99
// stays within tenancySlack x its solo p50. The tenancy-on run also
// checks the audit log: every admitted or denied action appears exactly
// once, and each record's trace ID resolves to its tenant.admit span.
func AblationTenancy(opts Options, burst int) (*AblationResult, error) {
	burst = orDefault(burst, tenancyBurst)
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("hog fires %d concurrent invocations while the victim issues %d paced probes of its own service", burst, tenancyProbes),
		fmt.Sprintf("fair-share bound = %.0fx the victim's solo p50, measured per variant before the burst", tenancySlack),
		"tenancy-off: the burst monopolises the grid, so the victim's probes queue behind ~all of it and p99 blows past the bound",
		"tenancy-on: the hog holds at most its in-flight quota (8 of 16 slots), overflow is shed with 429s, and the victim's p99 stays within the bound (bound_ok = 1)",
		"tenancy-on audits every action exactly once: audit_exactly_once = 1 means ok-invoke records carry unique tickets and counts match the client's view",
		"trace_resolvable = 1 means every audit record carries a well-formed trace ID and a sampled victim record's ID matches the tenant.admit span in its invocation trace",
	}}

	if err := tenancyRun(opts, res.at("noisy-neighbor", "tenancy-off"), burst, nil); err != nil {
		return nil, fmt.Errorf("experiments: tenancy off: %w", err)
	}
	if err := tenancyRun(opts, res.at("noisy-neighbor", "tenancy-on"), burst, tenancyConfig()); err != nil {
		return nil, fmt.Errorf("experiments: tenancy on: %w", err)
	}
	return res, nil
}

// tenancyRun executes one variant: boot, publish the victim's service,
// baseline the victim solo, fire the hog burst, probe through it, and
// (tenancy on) audit the books.
func tenancyRun(o Options, row func(string, float64), burst int, cfg *tenant.Config) error {
	o.Appliance.Tenancy = cfg
	// The staging + session caches keep per-invocation overhead flat so
	// the contended resource is the grid itself — identical in both
	// variants, so the comparison isolates the control plane.
	o.Appliance.StagingCache = true
	o.Appliance.SessionCache = true
	o.Tracing = cfg != nil // the on-variant verifies audit <-> trace linkage
	return withRig(o, func(r *rig) error { return r.tenancyBurst(row, burst, cfg) })
}

// tenancyBurst is tenancyRun's measurement on its rig.
func (r *rig) tenancyBurst(row func(string, float64), burst int, cfg *tenant.Config) (err error) {
	victim, hog := r.door(""), r.door("")
	if cfg != nil {
		victim.Key, hog.Key = "victim-secret", "hog-secret"
	}
	if err := victim.upload("probejob.gsh", "compute 1s\necho ok\n"); err != nil {
		return err
	}
	const service = "ProbejobService"
	// probe times one victim invocation end to end in virtual ms.
	probe := func(tag string) (ticket string, ms float64, err error) {
		start := time.Now()
		ticket, err = victim.call(service, tag)
		return ticket, float64(time.Since(start).Milliseconds()), err
	}

	// Solo baseline: the victim's latency with nobody else on the box.
	solo := make([]float64, tenancyWarmup)
	for i := range solo {
		if _, solo[i], err = probe(fmt.Sprintf("warm%d", i)); err != nil {
			return fmt.Errorf("warmup probe %d: %w", i, err)
		}
	}
	soloP50 := pctile(solo, 50)
	bound := tenancySlack * soloP50

	// Fire the burst; probe through it. The hog never waits for job
	// completion — the jobs contend for the grid either way — so every
	// burst goroutine is just one admission attempt.
	var hogAdmitted, hogDenied atomic.Uint64
	hogDone := make(chan error, 1)
	go func() {
		hogDone <- fanOut(burst, 0, func(i int) error {
			_, status, err := hog.invoke(service, fmt.Sprintf("hog%d", i))
			switch {
			case err != nil:
				return err
			case status == http.StatusOK:
				hogAdmitted.Add(1)
			case status == http.StatusTooManyRequests:
				hogDenied.Add(1)
			default:
				return fmt.Errorf("hog invoke %d: status %d", i, status)
			}
			return nil
		})
	}()

	probes := make([]float64, tenancyProbes)
	var lastTicket string
	for i := range probes {
		// The victim must always admit: a refusal is an error too.
		if lastTicket, probes[i], err = probe(fmt.Sprintf("probe%d", i)); err != nil {
			<-hogDone
			return fmt.Errorf("victim probe %d: %w", i, err)
		}
	}
	if err := <-hogDone; err != nil {
		return err
	}

	p99 := pctile(probes, 99)
	row("burst", float64(burst))
	row("victim_probes", float64(tenancyProbes))
	row("victim_solo_p50_ms", soloP50)
	row("victim_p50_ms", pctile(probes, 50))
	row("victim_p99_ms", p99)
	row("fair_share_bound_ms", bound)
	row("bound_ok", b2f(p99 <= bound))
	row("hog_admitted", float64(hogAdmitted.Load()))
	row("hog_denied", float64(hogDenied.Load()))
	// No admitted invocation is lost or runs twice: once the grid has
	// drained, it has finished one job for each.
	jobs := r.drainGrid()
	row("grid_jobs", float64(jobs))
	row("runs_once", b2f(jobs == int(hogAdmitted.Load())+tenancyWarmup+tenancyProbes))
	if cfg == nil {
		return nil
	}
	return r.tenancyAuditRows(row, lastTicket,
		int(hogAdmitted.Load())+tenancyWarmup+tenancyProbes, int(hogDenied.Load()))
}

// drainGrid waits until no job is queued or running on the rig's grid and
// returns how many it has finished.
func (r *rig) drainGrid() int {
	for {
		busy, done := 0, 0
		for _, st := range r.env.Grid.Stats() {
			busy, done = busy+st.Queued+st.Running, done+st.Completed+st.Failed
		}
		if busy == 0 {
			return done
		}
		time.Sleep(time.Second)
	}
}

// tenancyAuditRows pulls /api/audit and cross-checks it against the
// client's view of the run: every admitted invoke exactly once (unique
// tickets), every denial accounted, trace IDs well formed, and one
// sampled record's ID resolving to the tenant.admit span of its
// invocation trace.
func (r *rig) tenancyAuditRows(row func(string, float64), sampleTicket string, wantOK, wantDenied int) error {
	doc, err := r.door("").Audit("", 100000)
	if err != nil {
		return err
	}

	okInvokes, denied := 0, 0
	tickets := map[string]bool{}
	dupTickets := false
	tracesOK := true
	var sampleTrace string
	for _, rec := range doc.Records {
		if !hex32(rec.TraceID) {
			tracesOK = false
		}
		switch {
		case rec.Verb == string(tenant.VerbInvoke) && rec.Outcome == "ok":
			okInvokes++
			if rec.Ticket == "" || tickets[rec.Ticket] {
				dupTickets = true
			}
			tickets[rec.Ticket] = true
			if rec.Ticket == sampleTicket {
				sampleTrace = rec.TraceID
			}
		case rec.Outcome == "denied":
			denied++
		}
	}
	exactlyOnce := okInvokes == wantOK && denied == wantDenied && !dupTickets && doc.Dropped == 0

	// Resolve the sampled record back to its span tree: the invocation's
	// trace must contain the tenant.admit span under the same trace ID.
	resolved := false
	if sampleTrace != "" {
		spans, err := r.door("").Trace(sampleTicket)
		if err != nil {
			return err
		}
		for _, sd := range spans {
			if sd.Name == "tenant.admit" && sd.TraceID == sampleTrace {
				resolved = true
			}
		}
	}

	row("audit_records", float64(len(doc.Records)))
	row("audit_ok_invokes", float64(okInvokes))
	row("audit_denied", float64(denied))
	row("audit_dropped", float64(doc.Dropped))
	row("audit_exactly_once", b2f(exactlyOnce))
	row("trace_resolvable", b2f(tracesOK && resolved))
	return nil
}

// pctile returns the p-th percentile (nearest-rank) of the samples.
func pctile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// hex32 reports whether s is a 32-digit lowercase hex trace ID.
func hex32(s string) bool {
	_, err := hex.DecodeString(s)
	return len(s) == 32 && err == nil && s == strings.ToLower(s)
}
