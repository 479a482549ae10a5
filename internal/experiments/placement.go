package experiments

import (
	"fmt"
	"time"

	"repro/internal/appliance"
	"repro/internal/gridsim"
	"repro/internal/jsdl"
)

var placementTable = variantTable{"placement", []variant{
	{"load-only", nil},
	{"data-aware", func(c *appliance.Config) { c.DataAwarePlacement = true }},
}}

// PlacementVariants lists the site-selection ablation variants: the
// paper's load-only broker and the possession-aware scorer (probe the
// chunk stores, weigh missing bytes as WAN seconds against queue load).
var PlacementVariants = placementTable.names()

// placementChunkBytes matches the stage ablation's chunk size.
const placementChunkBytes = 64 << 10

// AblationPlacement measures where a simultaneous cold burst lands and
// what that choice costs in WAN bytes and makespan. Every variant runs
// the chunked staging data plane with staging coalescing on and the
// staging cache off, so each invocation re-stages and only the site
// order differs:
//
//   - load-only spreads the burst across sites by queue load, so half of
//     it re-ships the executable to a site that never saw the bytes;
//   - data-aware sends the burst to the possessing site until its queue
//     costs more than the cold transfer it avoids, so the chunk store
//     answers nearly every staging without a WAN payload.
//
// The sizeKB grid pins the tradeoff the scorer encodes: a small payload
// is cheaper to re-ship than to queue behind one busy site, a large one
// is not. With no explicit variants, every entry of PlacementVariants
// runs at each size.
func AblationPlacement(opts Options, invocations int, sizesKB []int, variants ...string) (*AblationResult, error) {
	invocations = orDefault(invocations, 64)
	if len(sizesKB) == 0 {
		sizesKB = []int{64, 1536}
	}
	table, err := placementTable.pick(variants...)
	if err != nil {
		return nil, err
	}
	// Like the stage ablation: the chunked data plane plus per-site
	// probes make many more round-trips than a stock PUT, so cap the
	// dilation or their real scheduling cost would bias the makespan.
	opts.capScale()
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous invocations of one executable; chunked staging + coalescing on, staging cache off for every variant", invocations),
		"one priming invocation stages the payload at a single site — steered away from the load broker's idle-grid favourite, so possession and load order disagree when the burst arrives",
		"load-only: the paper's broker — sites ordered by queue load alone",
		"data-aware: sites scored by load seconds + missing wire bytes over the ~85 KB/s WAN (possession probed via the chunk stores, TTL cache + singleflight)",
		"wan_wire_b is appliance WAN net-out during the burst; chunk_wire_b counts chunk payload bytes only; probe_rpcs the possession probes actually issued",
		"small payloads place like load-only (re-shipping is cheaper than queueing); large payloads chase the bytes — that crossover is the scorer's whole point",
	}}

	opts.Appliance.SessionCache = true
	opts.Appliance.StagingCache = false
	opts.Appliance.CoalesceStaging = true
	opts.Appliance.ChunkedStaging = true
	opts.Appliance.ChunkBytes = placementChunkBytes
	opts.Appliance.PollInterval = 3 * time.Second
	for _, sizeKB := range sizesKB {
		study := fmt.Sprintf("placement-%dkb", sizeKB)
		table.what = study
		err := table.run(opts, func(variant string, r *rig) error {
			return placementBurst(r, res.at(study, variant), sizeKB, invocations)
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// hogTieBreakSite fills a few slots of the load broker's idle-grid
// favourite (alphabetically first site) with long-running jobs, so the
// next placement prefers the sibling. Returns the site and the hog job
// IDs so the caller can cancel them.
func hogTieBreakSite(r *rig) (*gridsim.Site, []string, error) {
	site, err := r.env.Grid.Site(r.env.Grid.SiteNames()[0])
	if err != nil {
		return nil, nil, err
	}
	const owner = "/O=Repro/CN=alice"
	if err := site.Store().Put(owner, "hog.gsh", []byte("compute 10h\n")); err != nil {
		return nil, nil, err
	}
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		j, err := site.Submit(jsdl.Description{Owner: owner, Executable: "hog.gsh"})
		if err != nil {
			return nil, nil, err
		}
		ids = append(ids, j.ID)
	}
	return site, ids, nil
}

// placementBurst primes one site with the payload, then fires the burst
// and accounts the deltas.
func placementBurst(r *rig, row func(string, float64), sizeKB, invocations int) error {
	svc, err := r.deploy("burstjob.gsh", padded("compute 1s\necho ok\n", sizeKB<<10))
	if err != nil {
		return err
	}
	// Priming invocation: shares one grid session with the burst and
	// stages the payload at exactly one site. A few hog jobs briefly load
	// the broker's tie-break favourite so the priming lands at the OTHER
	// site — the bytes end up where load alone would not send the burst,
	// which is exactly the asymmetry a data-aware scorer exists for. The
	// hogs are cancelled before timing starts, so both sites enter the
	// burst idle.
	hogSite, hogIDs, err := hogTieBreakSite(r)
	if err != nil {
		return err
	}
	if _, err := svc.call(nil); err != nil {
		return fmt.Errorf("priming invocation: %w", err)
	}
	for _, id := range hogIDs {
		hogSite.Cancel(id)
	}

	placed, staged := since(r.app.OnServe.PlacementStats), since(r.app.OnServe.StageStats)
	m, err := r.measure(func() error { return svc.burst(invocations) })
	if err != nil {
		return err
	}
	place, stage := placed(), staged()
	row("makespan_s", m.seconds)
	row("wan_wire_b", m.sum["net_out_total_b"])
	row("chunk_wire_b", float64(stage.WireBytes))
	row("chunks_shipped", float64(stage.ChunksShipped))
	row("probe_rpcs", float64(place.ProbesSent))
	row("probe_cache_hits", float64(place.ProbeCacheHits))
	row("placements_redirected", float64(place.PlacementsRedirected))
	return nil
}
