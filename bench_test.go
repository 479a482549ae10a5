package repro

// One benchmark per table/figure of the paper's evaluation (Section
// VIII), plus the knobs study and the sweeps DESIGN.md calls out. Every
// iteration runs the corresponding experiment end-to-end — simulated
// TeraGrid, appliance, portal, SOAP services — in a testing/synctest
// bubble, and reports the headline virtual-time quantity next to the
// wall-clock cost of regenerating it.
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// BenchmarkFig6SmallFileInvocation regenerates Figure 6: Web-service
// execution of a small file; traffic dominated by the credential
// exchange, periodic poll-induced disk writes.
func BenchmarkFig6SmallFileInvocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary["duration_s"], "virtual_s/op")
		b.ReportMetric(res.Summary["net_out_total_b"], "grid_bytes/op")
	}
}

// BenchmarkFig7LargeFileInvocation regenerates Figure 7: the ~5MB
// executable whose staging saturates the ~85 KB/s WAN for about a minute.
// upload_KBps is the mean of the plateau's inner buckets (its first and
// last also hold the transfer's start and end). It used to be the mean of
// every plateau bucket, so a figure from before reads lower: 84.36 for
// the last dilated-clock fig7.csv, whose inner buckets read 85.04 (see
// EXPERIMENTS.md, Figure 7).
func BenchmarkFig7LargeFileInvocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.Options{})
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
		res, err := experiments.Fig8(experiments.Options{})
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
		res, err := experiments.Scalability(experiments.Options{}, []int{4}, 512)
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
		res, err := experiments.Scalability(experiments.Options{}, []int{4}, 512)
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
		res, err := experiments.SmallJobs(experiments.Options{}, 20, 8)
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
// reports rows of its result: `go test -bench=Ablation/Polling`.
var ablationBenches = []struct {
	name    string
	run     func() (*experiments.AblationResult, error)
	metrics []metric
}{
	// The tentative-poll interval sweep.
	{"Polling", func() (*experiments.AblationResult, error) {
		return experiments.AblationPolling(experiments.Options{}, []time.Duration{3 * time.Second, 30 * time.Second})
	}, []metric{
		{"poll-interval", "3s", "poll_disk_write_kb", "poll3s_disk_kb"},
		{"poll-interval", "30s", "poll_disk_write_kb", "poll30s_disk_kb"},
	}},
	// The database compression cost model (the Fig. 6 decompress CPU
	// peak's knob).
	{"Compression", func() (*experiments.AblationResult, error) {
		return experiments.AblationCompression(experiments.Options{}, 2048)
	}, []metric{
		{"compression", "fast-8MBps", "upload_cpu_total_s", "fast_cpu_s"},
		{"compression", "slow-512KBps", "upload_cpu_total_s", "slow_cpu_s"},
	}},
	// A retry after a mid-transfer fault: the monolithic PUT restarts from
	// byte zero, the chunked protocol resumes from its committed chunks.
	{"StageResume", func() (*experiments.AblationResult, error) {
		return experiments.AblationStage(experiments.Options{}, 256)
	}, []metric{
		{"stage-resume", "stock", "retry_wire_b", "stock_retry_wire_b"},
		{"stage-resume", "chunked", "retry_wire_b", "chunked_retry_wire_b"},
	}},
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

// BenchmarkKnobs runs the knobs study — Paper, Production, and Paper+K and
// Production−K for each of Production's knobs, on the figures and four
// workloads — and reports, for each knob, Production−K's virtual duration
// on the scenario it was built for next to Production's.
func BenchmarkKnobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Knobs(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []metric{
			{"hot8", "production", "duration_s", "hot8_prod_virtual_s"},
			{"hot8", "production-PushEvents", "duration_s", "hot8_prod-push_virtual_s"},
			{"hot8", "production-SessionCache", "duration_s", "hot8_prod-session_virtual_s"},
			{"cold16", "production", "duration_s", "cold16_prod_virtual_s"},
			{"cold16", "production-CoalesceStaging", "duration_s", "cold16_prod-coalesce_virtual_s"},
			{"fig7", "production", "net_out_b", "fig7_prod_wan_b"},
			{"fig7", "production-WireCompression", "net_out_b", "fig7_prod-gzip_wan_b"},
			{"fig8", "production-DirectDBWrite", "disk_write_b", "fig8_prod-direct_disk_b"},
		} {
			report(b, res, m)
		}
	}
}

// BenchmarkSchedulerPolicies runs the gridsim policy ablation: the same
// mixed workload under strict FCFS, aggressive backfill, and
// conservative backfill with reservations.
func BenchmarkSchedulerPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SchedulerPolicies()
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
		res, err := experiments.BaselineJSE(experiments.Options{}, 256)
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
