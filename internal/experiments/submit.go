package experiments

import (
	"fmt"
	"time"

	"repro/internal/appliance"
)

var submitTable = variantTable{"submit", []variant{
	{"stock", nil},
	{"coalesced", func(c *appliance.Config) {
		c.CoalesceStaging = true
		c.StatsTTL = 10 * time.Second
	}},
}}

// SubmitVariants lists the submission-side ablation variants: the
// paper's one-RPC-chain-per-invocation front-end (stats fetch, WAN
// staging upload, GRAM submit) against the coalesced front-end that
// single-flights cold stagings and collapses concurrent stats fetches
// onto one in-flight request.
var SubmitVariants = submitTable.names()

// AblationSubmit measures the submission path under a simultaneous cold
// burst. Both variants run with the session cache on and the staging
// cache off, so what differs is only how stats and staging bytes reach
// the grid: stock pays one stats round-trip and one full WAN upload per
// invocation; coalesced shares one in-flight stats fetch and one staging
// transfer per site. Both submit one job per RPC, as the paper does.
//
// With no explicit variants, every entry of SubmitVariants runs.
func AblationSubmit(opts Options, invocations int, variants ...string) (*AblationResult, error) {
	invocations = orDefault(invocations, 64)
	table, err := submitTable.pick(variants...)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous cold invocations of one 192 KB executable", invocations),
		"session cache on, staging cache off for both variants: only the submission front-end differs",
		"one warm-up invocation precedes the burst so the whole fleet shares one grid session",
		"stock: one stats RPC, one WAN upload and one submit RPC per invocation",
		"coalesced: coalesced staging + stats singleflight (10 s TTL); one submit RPC per invocation, like stock",
	}}
	opts.Appliance.SessionCache = true
	opts.Appliance.StagingCache = false
	opts.Appliance.PollInterval = 3 * time.Second
	err = table.run(opts, func(variant string, r *rig) error {
		// A padded executable makes each redundant WAN staging cost real
		// virtual seconds (~2.3 s at the paper's ~85 KB/s uplink).
		svc, err := r.deploy("burstjob.gsh", padded("compute 1s\necho ok\n", 192<<10))
		if err != nil {
			return err
		}
		// Warm up the session cache with one sequential invocation: a
		// simultaneous cold burst would stampede the session cache (every
		// invocation missing at once and authenticating its own session).
		if _, err := svc.call(nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		submitted := since(r.app.OnServe.SubmitStats)
		m, err := r.measure(func() error { return svc.burst(invocations) })
		if err != nil {
			return err
		}
		stats := submitted()
		row := res.at("submit", variant)
		row("makespan_s", m.seconds)
		row("uploads", float64(stats.Uploads))
		row("uploads_coalesced", float64(stats.UploadsCoalesced))
		row("submit_rpcs", float64(stats.SubmitRPCs))
		row("stats_rpcs", float64(stats.StatsRPCs))
		row("stats_collapsed", float64(stats.StatsCollapsed))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
