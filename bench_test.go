package repro

// One benchmark per table/figure of the paper's evaluation (Section
// VIII), plus the design-choice ablations DESIGN.md calls out. Every
// iteration runs the corresponding experiment end-to-end — simulated
// TeraGrid, appliance, portal, SOAP services — on a time-dilated clock,
// and reports the headline virtual-time quantity next to the wall-clock
// cost of regenerating it.
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// benchScale trades figure smoothness for benchmark wall time.
const benchScale = 500

func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale}
}

// BenchmarkFig6SmallFileInvocation regenerates Figure 6: Web-service
// execution of a small file; traffic dominated by the credential
// exchange, periodic poll-induced disk writes.
func BenchmarkFig6SmallFileInvocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary["duration_s"], "virtual_s/op")
		b.ReportMetric(res.Summary["net_out_total_b"], "grid_bytes/op")
	}
}

// BenchmarkFig7LargeFileInvocation regenerates Figure 7: the ~5MB
// executable whose staging saturates the ~85 KB/s WAN for about a minute.
func BenchmarkFig7LargeFileInvocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary["upload_plateau_s"], "upload_virtual_s/op")
		b.ReportMetric(res.Summary["upload_rate_kbps"], "upload_KBps")
	}
}

// BenchmarkFig8UploadAndGenerate regenerates Figure 8: portal upload over
// the 1000 Mbit LAN, service generation, and the double disk write.
func BenchmarkFig8UploadAndGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary["duration_s"], "virtual_s/op")
		b.ReportMetric(res.Summary["disk_write_total_b"], "disk_bytes/op")
	}
}

// BenchmarkScalabilityInvokeWAN regenerates the §VIII-D invoke row at
// concurrency 4: simultaneous stagings contending on the WAN.
func BenchmarkScalabilityInvokeWAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scalability(benchOpts(), []int{4}, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MakespanS, "makespan_virtual_s/op")
	}
}

// BenchmarkScalabilityUploadLAN regenerates the §VIII-D upload row at
// concurrency 4: simultaneous portal uploads on the LAN.
func BenchmarkScalabilityUploadLAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scalability(benchOpts(), []int{4}, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].MakespanS, "makespan_virtual_s/op")
	}
}

// BenchmarkManySmallJobs regenerates the §VIII-B observation: many small
// jobs flow through the middleware efficiently.
func BenchmarkManySmallJobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SmallJobs(benchOpts(), 20, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JobsPerMinute, "jobs_per_virtual_min")
	}
}

// metric is one reported quantity of an ablation benchmark: the result
// row it reads and the unit it is reported under.
type metric struct{ study, variant, metric, unit string }

// ablationBenches is every benchmark that runs one ablation study and
// reports rows of its result: `go test -bench=Ablation/SubmitStock`.
var ablationBenches = []struct {
	name    string
	run     func() (*experiments.AblationResult, error)
	metrics []metric
}{
	// The paper's temp-file+DB store path against direct streaming
	// (§VIII-D3).
	{"DoubleWrite", func() (*experiments.AblationResult, error) {
		return experiments.AblationDoubleWrite(benchOpts(), 1024)
	}, []metric{
		{"double-write", "stock", "disk_write_total_kb", "stock_disk_kb"},
		{"double-write", "direct", "disk_write_total_kb", "direct_disk_kb"},
	}},
	// Per-invocation re-upload against the content-hash staging cache
	// (§VIII-B's suggested improvement).
	{"StagingCache", func() (*experiments.AblationResult, error) {
		return experiments.AblationStagingCache(benchOpts(), 512, 3)
	}, []metric{
		{"staging-cache", "stock", "net_out_total_kb", "stock_wan_kb"},
		{"staging-cache", "cache", "net_out_total_kb", "cache_wan_kb"},
	}},
	// The tentative-poll interval sweep.
	{"Polling", func() (*experiments.AblationResult, error) {
		return experiments.AblationPolling(benchOpts(), []time.Duration{3 * time.Second, 30 * time.Second})
	}, []metric{
		{"poll-interval", "3s", "poll_disk_write_kb", "poll3s_disk_kb"},
		{"poll-interval", "30s", "poll_disk_write_kb", "poll30s_disk_kb"},
	}},
	// The database compression cost model (the Fig. 6 decompress CPU
	// peak's knob).
	{"Compression", func() (*experiments.AblationResult, error) {
		return experiments.AblationCompression(benchOpts(), 2048)
	}, []metric{
		{"compression", "fast-8MBps", "upload_cpu_total_s", "fast_cpu_s"},
		{"compression", "slow-512KBps", "upload_cpu_total_s", "slow_cpu_s"},
	}},
	// The paper-faithful invocation pipeline (fresh MyProxy logon and stats
	// fetch per invocation) — the baseline the warm benchmark is compared
	// against.
	{"InvokeHotPathCold", hotPath("stock"), []metric{
		{"hot-path", "stock", "per_invoke_s", "virtual_s/invoke"},
		{"hot-path", "stock", "net_out_total_kb", "grid_kb"},
	}},
	// The same workload with the session cache and stats TTL on: repeat
	// invocations skip the logon and the stats round-trip.
	{"InvokeHotPathWarm", hotPath("warm"), []metric{
		{"hot-path", "warm", "per_invoke_s", "virtual_s/invoke"},
		{"hot-path", "warm", "net_out_total_kb", "grid_kb"},
	}},
	// The two hot-path levers, each alone.
	{"SessionCache", hotPath("stock", "session-cache"), []metric{
		{"hot-path", "stock", "net_out_total_kb", "stock_grid_kb"},
		{"hot-path", "session-cache", "net_out_total_kb", "cached_grid_kb"},
	}},
	{"StatsTTL", hotPath("stock", "stats-ttl"), []metric{
		{"hot-path", "stock", "net_out_total_kb", "stock_grid_kb"},
		{"hot-path", "stats-ttl", "net_out_total_kb", "ttl_grid_kb"},
	}},
	// The output-collection workload (many simultaneous mostly-silent
	// invocations) under the paper's one-poller-goroutine-per-invocation
	// loop: one status round-trip and one full stdout re-fetch per
	// invocation per tick.
	{"PollHubStock", pollHub("stock"), []metric{
		{"poll-hub", "stock", "status_rpcs", "status_rpcs"},
		{"poll-hub", "stock", "output_bytes_kb", "output_kb"},
	}},
	// The push collector: state transitions and output bumps arrive over
	// one gatekeeper event stream per session, so steady-state status
	// RPCs collapse to (at most) the handful spent bootstrapping streams.
	{"PushEvents", pollHub("push"), []metric{
		{"poll-hub", "push", "status_rpcs", "status_rpcs"},
		{"poll-hub", "push", "events_delivered", "events"},
		{"poll-hub", "push", "detect_latency_s", "detect_s"},
	}},
	// The submission workload (a simultaneous cold burst of one service)
	// under the paper's front-end: one stats RPC, one WAN staging upload
	// and one submit RPC per invocation.
	{"SubmitStock", submit("stock"), []metric{
		{"submit", "stock", "uploads", "uploads"},
		{"submit", "stock", "submit_rpcs", "submit_rpcs"},
		{"submit", "stock", "stats_rpcs", "stats_rpcs"},
	}},
	// The same burst with coalesced staging and the stats singleflight.
	{"SubmitCoalesced", submit("coalesced"), []metric{
		{"submit", "coalesced", "uploads", "uploads"},
		{"submit", "coalesced", "uploads_coalesced", "coalesced"},
		{"submit", "coalesced", "submit_rpcs", "submit_rpcs"},
		{"submit", "coalesced", "stats_rpcs", "stats_rpcs"},
	}},
	// The staging data plane under the paper's monolithic uncompressed
	// PUT: the whole executable crosses the WAN on every cold staging and
	// again in full after any fault.
	{"StageStock", stage("stock"), []metric{
		{"stage-cold", "stock", "stage_s", "stage_virtual_s"},
		{"stage-cold", "stock", "wan_wire_b", "wan_wire_b"},
		{"stage-resume", "stock", "retry_wire_b", "retry_wire_b"},
	}},
	// Chunked content-addressed staging shipping the stored gzip stream:
	// fewer cold wire bytes by the payload's gzip ratio, and a faulted
	// transfer resumes from its committed chunks.
	{"StageChunked", stage("chunked-gzip"), []metric{
		{"stage-cold", "chunked-gzip", "stage_s", "stage_virtual_s"},
		{"stage-cold", "chunked-gzip", "wan_wire_b", "wan_wire_b"},
		{"stage-cold", "chunked-gzip", "chunks_shipped", "chunks_shipped"},
		{"stage-resume", "chunked", "retry_wire_b", "retry_wire_b"},
	}},
	// The stock one-write-per-put WAL path against batched group commit
	// (real time, on-disk WAL).
	{"WALGroupCommit", func() (*experiments.AblationResult, error) {
		return experiments.AblationGroupCommit(64, 8, 16)
	}, []metric{
		{"group-commit", "stock", "wal_writes", "stock_wal_writes"},
		{"group-commit", "group", "wal_writes", "group_wal_writes"},
		{"group-commit", "group", "wal_syncs", "group_wal_syncs"},
	}},
}

func hotPath(variants ...string) func() (*experiments.AblationResult, error) {
	return func() (*experiments.AblationResult, error) {
		return experiments.AblationHotPath(benchOpts(), 256, 3, variants...)
	}
}

func pollHub(variant string) func() (*experiments.AblationResult, error) {
	return func() (*experiments.AblationResult, error) {
		return experiments.AblationPollHub(benchOpts(), 16, variant)
	}
}

func submit(variant string) func() (*experiments.AblationResult, error) {
	return func() (*experiments.AblationResult, error) {
		return experiments.AblationSubmit(benchOpts(), 16, variant)
	}
}

func stage(variant string) func() (*experiments.AblationResult, error) {
	return func() (*experiments.AblationResult, error) {
		return experiments.AblationStage(benchOpts(), 256, variant)
	}
}

// BenchmarkAblation runs every row of ablationBenches as a
// sub-benchmark named after it.
func BenchmarkAblation(b *testing.B) {
	for _, bench := range ablationBenches {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.run()
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range bench.metrics {
					report(b, res, m)
				}
			}
		})
	}
}

// BenchmarkSchedulerPolicies runs the gridsim policy ablation: the same
// mixed workload under strict FCFS, aggressive backfill, and
// conservative backfill with reservations.
func BenchmarkSchedulerPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Moderate dilation: the workload's walltime slack (5 virtual
		// seconds) must stay above host scheduling jitter.
		res, err := experiments.SchedulerPolicies(300)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MakespanS, row.Policy+"_makespan_s")
		}
	}
}

// BenchmarkBaselineJSE regenerates the motivation comparison: raw JSE
// access versus the SaaS path for the same job over the same WAN.
func BenchmarkBaselineJSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.BaselineJSE(benchOpts(), 256)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Model {
			case "jse-direct":
				b.ReportMetric(row.LatencyS, "direct_virtual_s")
			case "onserve-saas":
				b.ReportMetric(row.LatencyS, "saas_virtual_s")
			}
		}
	}
}

func report(b *testing.B, res *experiments.AblationResult, m metric) {
	for _, row := range res.Rows {
		if row.Study == m.study && row.Variant == m.variant && row.Metric == m.metric {
			b.ReportMetric(row.Value, m.unit)
			return
		}
	}
	b.Fatalf("missing %s/%s/%s", m.study, m.variant, m.metric)
}
