package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/gateway"
	"repro/internal/gridenv"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/vtime"
)

// FleetSizes is the default scale-out grid for the fleet ablation.
var FleetSizes = []int{1, 4, 16}

// fleetPayloadKB sizes each service's executable: big enough that
// staging it across one appliance's ~85 KB/s WAN uplink dominates, so
// aggregate throughput is bounded by how many uplinks the fleet has.
const fleetPayloadKB = 64

// AblationFleet measures consistent-hash scale-out: the same 64-way
// burst of Web-service invocations (4 invocations over each of 16
// services) is pushed through a fleet gateway fronting 1, 4, and 16
// appliances. Every appliance gets its own WAN uplink to the grid —
// the paper's single-appliance bottleneck — so makespan shrinks as the
// ring spreads the 16 services' staging traffic over more uplinks,
// while routing stickiness stays at 100%: one service's sessions,
// caches, and staged bytes never leave its shard.
//
// A final failover run repeats the burst at fleet=4 and hard-kills one
// appliance mid-burst: the circuit breaker ejects it, its keys remap to
// ring successors, the gateway replays the catalogued uploads there,
// and clients that caught the crash re-issue — every invocation must
// still complete.
func AblationFleet(opts Options, fleets []int, invocations int) (*AblationResult, error) {
	if len(fleets) == 0 {
		fleets = FleetSizes
	}
	invocations = orDefault(invocations, 64)
	// The burst multiplies every real-scheduling cost by the fleet width;
	// cap the dilation like the other burst ablations do.
	opts.capScale()
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous invocations, 4 per service over %d services, POSTed through the fleet gateway", invocations, invocations/4),
		fmt.Sprintf("each service's executable is %d KB; the staging cache is off, so every invocation re-stages it across its appliance's ~85 KB/s WAN uplink — the paper's single-appliance bottleneck", fleetPayloadKB),
		"requests shard by consistent hash on service|owner: stickiness_pct is the fraction of keyed dispatches that landed on the ring primary",
		"throughput_inv_per_min should scale with the fleet: more appliances = more WAN uplinks staging in parallel",
		"submit_rpcs / status_rpcs / uploads are summed over the fleet; shards_used counts appliances that executed at least one invocation",
		"the kill-1 run hard-kills one appliance mid-burst at fleet=4: ejection + ring failover + catalog replay let every invocation complete (completed == the burst size), clients re-issuing on the crash (reissues)",
	}}

	for _, n := range fleets {
		rows, err := fleetBurst(opts, fmt.Sprintf("fleet-%d", n), "scale-out", n, invocations, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet %d: %w", n, err)
		}
		res.Rows = append(res.Rows, rows...)
	}
	rows, err := fleetBurst(opts, "fleet-4", "kill-1", 4, invocations, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet failover: %w", err)
	}
	res.Rows = append(res.Rows, rows...)
	return res, nil
}

// fleetRig is the booted fleet measurement stack.
type fleetRig struct {
	clock *vtime.Scaled
	env   *gridenv.Env
	gw    *gateway.Gateway
}

func newFleetRig(o Options, fleetN int) (*fleetRig, error) {
	clk := o.clock()
	// The grid's server side stays unshaped; each appliance's own
	// client-side WAN uplink is the measured link.
	env, err := bootGrid(clk, nil, nil)
	if err != nil {
		return nil, err
	}
	gw, err := gateway.Boot(gateway.Config{
		Fleet: fleetN,
		Appliance: appliance.Config{
			Endpoints:         env.Endpoints(),
			Clock:             clk,
			PollInterval:      3 * time.Second,
			InvocationTimeout: time.Hour,
			SessionCache:      true,
		},
		// Each shard gets its own shaped WAN uplink toward the grid — the
		// fleet's whole point is multiplying this link.
		PerShard: func(i int, cfg appliance.Config) appliance.Config {
			cfg.GridHTTP, cfg.MyProxyDial = wanUplink(netsim.WAN(clk), nil)
			return cfg
		},
		Clock:         clk,
		FailThreshold: 2,
		ProbeInterval: 30 * time.Second,
		ProbeTimeout:  2 * time.Second,
		HalfOpenAfter: 2 * time.Minute,
		PullInterval:  5 * time.Minute,
	}, nil)
	if err != nil {
		env.Close()
		return nil, err
	}
	gw.RegisterUser("alice", aliceAuth)
	return &fleetRig{clock: clk, env: env, gw: gw}, nil
}

func (r *fleetRig) close() {
	r.gw.Shutdown()
	r.env.Close()
}

// door reaches the fleet through its gateway.
func (r *fleetRig) door() door { return door{portal.Client{Base: r.gw.BaseURL}} }

// fleetBurst boots one fleet, publishes the service set, fires the
// burst, and accounts gateway + fleet-wide counters. With kill set, one
// appliance is hard-killed once an eighth of the burst has completed.
func fleetBurst(o Options, study, variant string, fleetN, invocations int, kill bool) ([]AblationRow, error) {
	r, err := newFleetRig(o, fleetN)
	if err != nil {
		return nil, err
	}
	defer r.close()

	nServices := invocations / 4
	if nServices < 1 {
		nServices = 1
	}
	front := r.door()
	program := padded("compute 1s\necho ok\n", fleetPayloadKB<<10)
	services := make([]string, nServices)
	for i := range services {
		if err := front.upload(fmt.Sprintf("fleetjob%02d.gsh", i), program); err != nil {
			return nil, err
		}
		services[i] = fmt.Sprintf("Fleetjob%02dService", i)
	}

	// The failover victim is the shard owning the most services — killing
	// it mid-burst forces the largest share of the keyspace through
	// ejection, ring failover, and catalog replay.
	victim := -1
	if kill {
		load := map[int]int{}
		for _, svc := range services {
			load[r.gw.PrimaryFor(svc, "alice")]++
		}
		for shard, n := range load {
			if victim < 0 || n > load[victim] {
				victim = shard
			}
		}
	}

	start := r.clock.Now()
	var completed, reissues atomic.Uint64
	burstDone := make(chan error, 1)
	go func() {
		burstDone <- fanOut(invocations, 0, func(i int) error {
			var err error
			for attempt := 0; attempt < 10; attempt++ {
				if attempt > 0 {
					reissues.Add(1)
					time.Sleep(100 * time.Millisecond)
				}
				if _, err = front.call(services[i%len(services)], fmt.Sprint(i)); err == nil {
					completed.Add(1)
					return nil
				}
				if !kill {
					break // healthy runs must succeed first try
				}
			}
			return fmt.Errorf("invocation %d: %w", i, err)
		})
	}()
	if kill {
		// Hard-kill the victim once the burst is demonstrably in flight —
		// after the first completion, while the victim still holds most of
		// its share of the burst.
		for completed.Load() == 0 && len(burstDone) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		if err := r.gw.Kill(victim); err != nil {
			<-burstDone
			return nil, err
		}
	}
	if err := <-burstDone; err != nil {
		return nil, err
	}
	elapsed := r.clock.Now().Sub(start).Seconds()

	st := r.gw.GatewayStats()
	var submitRPCs, statusRPCs, uploads uint64
	shardsUsed := 0
	for i, app := range r.gw.Fleet() {
		if kill && i == victim {
			continue // killed appliance: its counters died with it
		}
		submitRPCs += app.OnServe.SubmitStats().SubmitRPCs
		statusRPCs += app.OnServe.CollectorStats().StatusRPCs
		uploads += app.OnServe.SubmitStats().Uploads
		if len(app.OnServe.Invocations()) > 0 {
			shardsUsed++
		}
	}

	row := func(metric string, v float64) AblationRow {
		return AblationRow{Study: study, Variant: variant, Metric: metric, Value: v}
	}
	rows := []AblationRow{
		row("appliances", float64(fleetN)),
		row("makespan_s", elapsed),
		row("throughput_inv_per_min", float64(invocations)/elapsed*60),
		row("stickiness_pct", 100*float64(st.StickyHits)/float64(st.Routed)),
		row("completed", float64(completed.Load())),
		row("shards_used", float64(shardsUsed)),
		row("submit_rpcs", float64(submitRPCs)),
		row("status_rpcs", float64(statusRPCs)),
		row("uploads", float64(uploads)),
	}
	if kill {
		rows = append(rows,
			row("reissues", float64(reissues.Load())),
			row("failovers", float64(st.Failovers)),
			row("retried", float64(st.Retried)),
			row("redeploys", float64(st.Redeploys)),
			row("ejections", float64(st.Ejections)),
		)
	}
	return rows, nil
}
