package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

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
// invoke latency blows past any bound; with -tenancy on, the hog's
// in-flight quota caps how much grid the burst can hold, queued
// admissions beyond the bound are shed with 429s, and the victim's p99
// stays within tenancySlack x its solo p50. The tenancy-on run also
// checks the audit log: every admitted or denied action appears exactly
// once, and each record's trace ID resolves to its tenant.admit span.
func AblationTenancy(opts Options, burst int) (*AblationResult, error) {
	if burst <= 0 {
		burst = tenancyBurst
	}
	// The burst multiplies every real-scheduling cost; cap the dilation
	// like the other burst ablations do.
	if opts.Scale <= 0 || opts.Scale > 40 {
		opts.Scale = 40
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("hog fires %d concurrent invocations while the victim issues %d paced probes of its own service", burst, tenancyProbes),
		fmt.Sprintf("fair-share bound = %.0fx the victim's solo p50, measured per variant before the burst", tenancySlack),
		"tenancy-off: the burst monopolises the grid, so the victim's probes queue behind ~all of it and p99 blows past the bound",
		"tenancy-on: the hog holds at most its in-flight quota (8 of 16 slots), overflow is shed with 429s, and the victim's p99 stays within the bound (bound_ok = 1)",
		"tenancy-on audits every action exactly once: audit_exactly_once = 1 means ok-invoke records carry unique tickets and counts match the client's view",
		"trace_resolvable = 1 means every audit record carries a well-formed trace ID and a sampled victim record's ID matches the tenant.admit span in its invocation trace",
	}}

	off, err := tenancyRun(opts, "tenancy-off", burst, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: tenancy off: %w", err)
	}
	res.Rows = append(res.Rows, off...)

	on, err := tenancyRun(opts, "tenancy-on", burst, tenancyConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: tenancy on: %w", err)
	}
	res.Rows = append(res.Rows, on...)
	return res, nil
}

// tenancyRun executes one variant: boot, publish the victim's service,
// baseline the victim solo, fire the hog burst, probe through it, and
// (tenancy on) audit the books.
func tenancyRun(o Options, variant string, burst int, cfg *tenant.Config) ([]AblationRow, error) {
	o.Appliance.Tenancy = cfg
	// The staging + session caches keep per-invocation overhead flat so
	// the contended resource is the grid itself — identical in both
	// variants, so the comparison isolates the control plane.
	o.Appliance.StagingCache = true
	o.Appliance.SessionCache = true
	o.Tracing = cfg != nil // the on-variant verifies audit <-> trace linkage
	r, err := newRig(o)
	if err != nil {
		return nil, err
	}
	defer r.close()

	victimKey, hogKey := "", ""
	if cfg != nil {
		victimKey, hogKey = "victim-secret", "hog-secret"
	}
	if err := r.uploadWithKey("probejob.gsh", "compute 1s\necho ok\n", victimKey); err != nil {
		return nil, err
	}
	const service = "ProbejobService"

	// Solo baseline: the victim's latency with nobody else on the box.
	solo := make([]float64, 0, tenancyWarmup)
	for i := 0; i < tenancyWarmup; i++ {
		ms, err := r.probeOnce(service, victimKey, fmt.Sprintf("warm%d", i))
		if err != nil {
			return nil, fmt.Errorf("warmup probe %d: %w", i, err)
		}
		solo = append(solo, ms)
	}
	soloP50 := pctile(solo, 50)
	bound := tenancySlack * soloP50

	// Fire the burst; probe through it. The hog never waits for job
	// completion — the jobs contend for the grid either way — so every
	// burst goroutine is just one admission attempt.
	var (
		wg          sync.WaitGroup
		hogAdmitted atomic.Uint64
		hogDenied   atomic.Uint64
	)
	hogErrs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status, err := r.invokeJSON(service, hogKey, map[string]string{"x": fmt.Sprintf("hog%d", i)})
			switch {
			case err != nil:
				hogErrs <- err
			case status == http.StatusOK:
				hogAdmitted.Add(1)
			case status == http.StatusTooManyRequests:
				hogDenied.Add(1)
			default:
				hogErrs <- fmt.Errorf("hog invoke %d: status %d", i, status)
			}
		}()
	}

	probes := make([]float64, 0, tenancyProbes)
	var lastTicket string
	for i := 0; i < tenancyProbes; i++ {
		start := r.clock.Now()
		ticket, status, err := r.invokeJSON(service, victimKey, map[string]string{"x": fmt.Sprintf("probe%d", i)})
		if err != nil {
			return nil, fmt.Errorf("victim probe %d: %w", i, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("victim probe %d: status %d (the victim must always admit)", i, status)
		}
		if err := r.waitTicket(ticket); err != nil {
			return nil, fmt.Errorf("victim probe %d: %w", i, err)
		}
		probes = append(probes, float64(r.clock.Now().Sub(start).Milliseconds()))
		lastTicket = ticket
	}
	wg.Wait()
	close(hogErrs)
	if err := <-hogErrs; err != nil {
		return nil, err
	}

	p99 := pctile(probes, 99)
	row := func(metric string, v float64) AblationRow {
		return AblationRow{Study: "noisy-neighbor", Variant: variant, Metric: metric, Value: v}
	}
	rows := []AblationRow{
		row("burst", float64(burst)),
		row("victim_probes", float64(tenancyProbes)),
		row("victim_solo_p50_ms", soloP50),
		row("victim_p50_ms", pctile(probes, 50)),
		row("victim_p99_ms", p99),
		row("fair_share_bound_ms", bound),
		row("bound_ok", b2f(p99 <= bound)),
		row("hog_admitted", float64(hogAdmitted.Load())),
		row("hog_denied", float64(hogDenied.Load())),
	}
	if cfg != nil {
		auditRows, err := r.tenancyAuditRows(variant, lastTicket,
			int(hogAdmitted.Load())+tenancyWarmup+tenancyProbes, int(hogDenied.Load()))
		if err != nil {
			return nil, err
		}
		rows = append(rows, auditRows...)
	}
	return rows, nil
}

// tenancyAuditRows pulls /api/audit and cross-checks it against the
// client's view of the run: every admitted invoke exactly once (unique
// tickets), every denial accounted, trace IDs well formed, and one
// sampled record's ID resolving to the tenant.admit span of its
// invocation trace.
func (r *rig) tenancyAuditRows(variant, sampleTicket string, wantOK, wantDenied int) ([]AblationRow, error) {
	resp, err := r.userHTTP.Get(r.app.BaseURL + "/api/audit?n=100000")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("audit fetch failed (%d): %s", resp.StatusCode, body)
	}
	var doc struct {
		Records []tenant.Record `json:"records"`
		Dropped uint64          `json:"dropped"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
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
		spans, err := r.fetchTrace(sampleTicket)
		if err != nil {
			return nil, err
		}
		for _, sd := range spans {
			if sd.Name == "tenant.admit" && sd.TraceID == sampleTrace {
				resolved = true
			}
		}
	}

	row := func(metric string, v float64) AblationRow {
		return AblationRow{Study: "noisy-neighbor", Variant: variant, Metric: metric, Value: v}
	}
	return []AblationRow{
		row("audit_records", float64(len(doc.Records))),
		row("audit_ok_invokes", float64(okInvokes)),
		row("audit_denied", float64(denied)),
		row("audit_dropped", float64(doc.Dropped)),
		row("audit_exactly_once", b2f(exactlyOnce)),
		row("trace_resolvable", b2f(tracesOK && resolved)),
	}, nil
}

// uploadWithKey posts the multipart upload form, stamping the tenant
// key when the control plane is on.
func (r *rig) uploadWithKey(fileName, program, key string) error {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", fileName)
	if err != nil {
		return err
	}
	io.WriteString(fw, program)
	mw.WriteField("user", "alice")
	mw.WriteField("description", "tenancy ablation")
	mw.Close()
	req, err := http.NewRequest(http.MethodPost, r.app.BaseURL+"/upload", &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	if key != "" {
		req.Header.Set(tenant.KeyHeader, key)
	}
	resp, err := r.userHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload failed (%d): %s", resp.StatusCode, body)
	}
	return nil
}

// invokeJSON drives one invocation through the portal's JSON API,
// returning the HTTP status so callers can count 429 sheds without
// treating them as errors.
func (r *rig) invokeJSON(service, key string, args map[string]string) (string, int, error) {
	payload, _ := json.Marshal(map[string]any{"service": service, "args": args})
	req, err := http.NewRequest(http.MethodPost, r.app.BaseURL+"/api/invoke", bytes.NewReader(payload))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(tenant.KeyHeader, key)
	}
	resp, err := r.userHTTP.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return "", resp.StatusCode, nil
	}
	var inv struct {
		Ticket string `json:"ticket"`
	}
	if err := json.Unmarshal(body, &inv); err != nil || inv.Ticket == "" {
		return "", resp.StatusCode, fmt.Errorf("invoke reply %q: %v", body, err)
	}
	return inv.Ticket, resp.StatusCode, nil
}

// waitTicket blocks until the invocation reaches its terminal state.
func (r *rig) waitTicket(ticket string) error {
	resp, err := r.userHTTP.Get(r.app.BaseURL + "/api/wait?ticket=" + ticket)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("wait: status %d: %s", resp.StatusCode, body)
	}
	return nil
}

// probeOnce times one victim invocation end to end in virtual ms.
func (r *rig) probeOnce(service, key, tag string) (float64, error) {
	start := r.clock.Now()
	ticket, status, err := r.invokeJSON(service, key, map[string]string{"x": tag})
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("probe invoke: status %d", status)
	}
	if err := r.waitTicket(ticket); err != nil {
		return 0, err
	}
	return float64(r.clock.Now().Sub(start).Milliseconds()), nil
}

// pctile returns the p-th percentile (nearest-rank) of the samples.
func pctile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// hex32 reports whether s is a 32-digit lowercase hex trace ID.
func hex32(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
