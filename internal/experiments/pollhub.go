package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/appliance"
)

var pollHubTable = variantTable{"poll-hub", []variant{
	{"stock", nil},
	{"push", func(c *appliance.Config) { c.PushEvents = true }},
}}

// PollHubVariants lists the output-collection ablation variants: the
// paper's one-poller-goroutine-per-invocation loop, and the push
// collector that retires polling altogether — job transitions arrive
// over one long-lived gatekeeper event stream per session. (The sharded
// poll hub the study is named after was a column here until push beat it
// on every metric; its code went too — a push worker whose stream is gone
// polls its own jobs — and EXPERIMENTS.md keeps its last measurement.)
var PollHubVariants = pollHubTable.names()

// AblationPollHub measures the output-collection path under many
// concurrent invocations. All variants run with the session and staging
// caches on so the comparison isolates collection: what differs is only
// how job status reaches the appliance and when stdout bytes cross the
// WAN. Each variant invokes one slow, mostly-silent service invocations
// times simultaneously; with a 3-second poll against a job that emits a
// ~100-byte report every 27 seconds, most polls see unchanged output —
// the stock poller re-fetches the full snapshot every tick, and the push
// variant issues no steady-state status RPCs or output fetches at all
// (completion and the small snapshots are pushed, so its detection
// latency is delivery-bound, not poll-interval-bound).
//
// With no explicit variants, every entry of PollHubVariants runs.
func AblationPollHub(opts Options, invocations int, variants ...string) (*AblationResult, error) {
	invocations = orDefault(invocations, 64)
	table, err := pollHubTable.pick(variants...)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous invocations of a job emitting every 27s, polled every 3s", invocations),
		"session and staging caches on for all variants: only the collection path differs",
		"one warm-up invocation precedes the burst so the whole fleet shares one grid session",
		"stock: one poller per invocation, full stdout re-fetch per tick",
		"push: one /gram/events stream per session carrying state and the stdout snapshot, zero steady-state status RPCs and output fetches, detection at delivery latency",
		"detect_latency_s: mean job-end to invocation-terminal gap — poll variants are bounded by the tick, push by delivery",
	}}
	opts.Appliance.SessionCache = true
	opts.Appliance.StagingCache = true
	opts.Appliance.PollInterval = 3 * time.Second
	// Three 96-byte progress reports separated by 27 silent seconds: most
	// polls see an unchanged snapshot, and every re-fetch of the full
	// snapshot costs real bytes.
	program := fmt.Sprintf("emit 27s 3 %s\n", strings.Repeat("progress-report ", 6))
	err = table.run(opts, func(variant string, r *rig) error {
		svc, err := r.deploy("ticker.gsh", program)
		if err != nil {
			return err
		}
		// Warm up the session and staging caches with one sequential
		// invocation: a simultaneous cold burst would stampede the session
		// cache (every invocation missing at once and authenticating its
		// own session), and push opens one stream per session.
		if _, err := svc.call(nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		collected := since(r.app.OnServe.CollectorStats)
		tickets := make([]string, invocations)
		m, err := r.measure(func() error {
			return fanOut(invocations, 0, func(i int) (err error) {
				if tickets[i], err = svc.start(nil); err == nil {
					_, err = svc.wait(tickets[i])
				}
				return err
			})
		})
		if err != nil {
			return err
		}
		stats := collected()
		detect, err := meanDetectLatency(r, tickets)
		if err != nil {
			return err
		}
		row := res.at("poll-hub", variant)
		row("makespan_s", m.seconds)
		row("status_rpcs", float64(stats.StatusRPCs))
		row("output_fetches", float64(stats.OutputFetches))
		row("output_not_modified", float64(stats.OutputNotModified))
		row("output_bytes_kb", float64(stats.OutputBytes)/1024)
		row("poll_disk_writes", float64(stats.PollDiskWrites))
		row("detect_latency_s", detect)
		if variant == "push" {
			es := r.app.OnServe.EventStats()
			row("output_inlined", float64(stats.OutputInlined))
			row("events_delivered", float64(es.EventsDelivered))
			row("event_streams", float64(es.StreamsOpened))
			row("fallbacks_to_poll", float64(es.FallbacksToPoll))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// meanDetectLatency averages, over the burst's tickets, the gap between
// the grid job's scheduler-recorded end time and the instant the
// appliance marked the invocation terminal — the completion-detection
// latency the push channel is meant to shrink below the poll interval.
func meanDetectLatency(r *rig, tickets []string) (float64, error) {
	var sum float64
	n := 0
	for _, t := range tickets {
		inv, err := r.app.OnServe.Invocation(t)
		if err != nil {
			return 0, err
		}
		job, err := r.env.Grid.Job(inv.JobID)
		if err != nil {
			return 0, err
		}
		_, _, ended := job.Times()
		if ended.IsZero() || inv.EndedAt().IsZero() {
			continue
		}
		sum += inv.EndedAt().Sub(ended).Seconds()
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}
