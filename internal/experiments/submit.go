package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gsh"
	"repro/internal/wsclient"
)

// SubmitVariants lists the submission-side ablation variants: the
// paper's one-RPC-chain-per-invocation front-end (stats fetch, WAN
// staging upload, GRAM submit) against the batched front-end that
// single-flights cold stagings, coalesces submissions into one
// gatekeeper round-trip per window, and collapses concurrent stats
// fetches onto one in-flight request.
var SubmitVariants = []string{"stock", "batched"}

// AblationSubmit measures the submission path under a simultaneous cold
// burst. Both variants run with the session cache on and the staging
// cache off, so what differs is only how stats, staging bytes and
// submit RPCs reach the grid: stock pays one stats round-trip, one full
// WAN upload and one submit RPC per invocation; batched shares one
// in-flight stats fetch, one staging transfer per site, and one
// submit-batch RPC per coalescing window.
//
// With no explicit variants, every entry of SubmitVariants runs.
func AblationSubmit(opts Options, invocations int, variants ...string) (*AblationResult, error) {
	if invocations <= 0 {
		invocations = 64
	}
	if len(variants) == 0 {
		variants = SubmitVariants
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous cold invocations of one 192 KB executable", invocations),
		"session cache on, staging cache off for both variants: only the submission front-end differs",
		"one warm-up invocation precedes the burst so the whole fleet shares one grid session",
		"stock: one stats RPC, one WAN upload and one submit RPC per invocation",
		"batched: coalesced staging + submit hub (2 s window) + stats singleflight (10 s TTL)",
	}}
	for _, variant := range variants {
		o := opts
		o.Appliance.SessionCache = true
		o.Appliance.StagingCache = false
		o.Appliance.PollInterval = 3 * time.Second
		switch variant {
		case "stock":
		case "batched":
			o.Appliance.CoalesceStaging = true
			o.Appliance.SubmitHub = true
			o.Appliance.SubmitHubWindow = 2 * time.Second
			o.Appliance.StatsTTL = 10 * time.Second
		default:
			return nil, fmt.Errorf("experiments: unknown submit variant %q", variant)
		}
		r, err := newRig(o)
		if err != nil {
			return nil, err
		}
		// A padded executable makes each redundant WAN staging cost real
		// virtual seconds (~2.3 s at the paper's ~85 KB/s uplink).
		program := string(gsh.Pad([]byte("compute 1s\necho ok\n"), 192<<10))
		if err := r.uploadViaPortal("burstjob.gsh", program); err != nil {
			r.close()
			return nil, err
		}
		proxy, err := wsclient.ImportURL(r.app.BaseURL+"/services/BurstjobService", r.userHTTP)
		if err != nil {
			r.close()
			return nil, err
		}
		// Warm up the session cache with one sequential invocation: a
		// simultaneous cold burst would stampede the session cache (every
		// invocation missing at once and authenticating its own session),
		// and the submit hub batches per session.
		ticket, err := proxy.Invoke("execute", nil)
		if err == nil {
			_, err = proxy.Invoke("wait", map[string]string{"ticket": ticket})
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("experiments: submit %s warm-up: %w", variant, err)
		}
		before := r.app.OnServe.SubmitStats()
		r.rec.Reset()
		start := r.clock.Now()
		var wg sync.WaitGroup
		errs := make(chan error, invocations)
		for i := 0; i < invocations; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ticket, err := proxy.Invoke("execute", nil)
				if err != nil {
					errs <- err
					return
				}
				if _, err := proxy.Invoke("wait", map[string]string{"ticket": ticket}); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			r.close()
			return nil, fmt.Errorf("experiments: submit %s: %w", variant, err)
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		stats := r.app.OnServe.SubmitStats()
		stats.Uploads -= before.Uploads
		stats.UploadsCoalesced -= before.UploadsCoalesced
		stats.SubmitRPCs -= before.SubmitRPCs
		stats.SubmitsBatched -= before.SubmitsBatched
		stats.StatsRPCs -= before.StatsRPCs
		stats.StatsCollapsed -= before.StatsCollapsed
		res.Rows = append(res.Rows,
			AblationRow{Study: "submit", Variant: variant, Metric: "makespan_s", Value: elapsed},
			AblationRow{Study: "submit", Variant: variant, Metric: "uploads", Value: float64(stats.Uploads)},
			AblationRow{Study: "submit", Variant: variant, Metric: "uploads_coalesced", Value: float64(stats.UploadsCoalesced)},
			AblationRow{Study: "submit", Variant: variant, Metric: "submit_rpcs", Value: float64(stats.SubmitRPCs)},
			AblationRow{Study: "submit", Variant: variant, Metric: "submits_batched", Value: float64(stats.SubmitsBatched)},
			AblationRow{Study: "submit", Variant: variant, Metric: "stats_rpcs", Value: float64(stats.StatsRPCs)},
			AblationRow{Study: "submit", Variant: variant, Metric: "stats_collapsed", Value: float64(stats.StatsCollapsed)},
		)
		r.close()
	}
	return res, nil
}
