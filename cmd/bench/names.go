package main

// metricDef names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what the driver judges, the same on every workload. The
// issue lists eight; the five below the line in demoted failed the
// repeatability criterion on the host this was built on and are
// reported as per-layer metrics instead (bench/README.md has the runs).
// Per-op costs are the median over the window's slices of the
// per-slice value.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "sut_allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "sut_alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
}

// demoted are the issue's other end-to-end metrics. The four timings
// move with the host: the same commit measured 44 to 69 cold_large ops/s
// within one set of ten runs, and spreads of 13 to 42 % against bounds
// of 5 and 10 %. fail_ratio is 0 on every valid run, and a bound
// relative to 0 means nothing; the result line's attempted/failed pair
// carries it for the driver.
var demoted = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "sut_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

// rungNames are the layer rungs (rungs.go), each reported as
// <name>.ns_per_op and <name>.allocs_per_op.
var rungNames = []string{
	"soap.encode", "soap.decode", "wsdl.generate", "wsdl.parse", "jsdl.roundtrip",
	"xsec.verify_chain", "xsec.delegate", "myproxy.get",
	"blobdb.put_mem_64k", "blobdb.put_wal_64k", "blobdb.get_miss_64k", "blobdb.get_hit_64k", "blobdb.get_compressed_64k",
	"gridftp.put_1m", "gridftp.put_chunked_cold_1m", "gridftp.put_chunked_warm_1m",
	"gram.submit", "gram.status_batch_64", "gram.output_unchanged",
	"gsh.parse_1m", "gridsim.submit_done", "tenant.admit", "trace.span_on", "trace.span_nil",
	"gateway.decode_route", "gateway.proxy_hop", "portal.hop", "uddi.publish_find",
	"core.upload_generate_64k", "core.invoke_hot",
}

// spanNames are the spans whose self time the traced run reports as
// span.<name>.self_ms_per_op. The client.* spans are the harness's own.
// Gateway spans are recorded as "route:<kind>" and summed under "route".
var spanNames = []string{
	"invoke", "db.fetch", "logon", "place", "stage", "submit", "collect", "event", "poll", "upload",
	"tenant.admit", "route", "myproxy.get",
	"ftp.put", "ftp.chunk.put", "ftp.commit", "ftp.chunks.have",
	"gram.submit", "job.queue", "job.run",
	"client.execute", "client.wait", "client.upload", "client.delete",
}

// countDefs are the window-delta counts and process gauges of the
// untraced window, plus the traced run's own three numbers.
var countDefs = []metricDef{
	{Name: "core.status_rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.output_fetches_per_op", Unit: "count", Better: "lower"},
	{Name: "core.uploads_per_op", Unit: "count", Better: "lower"},
	{Name: "core.stage_wire_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "core.submit_rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.stats_rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.events_per_op", Unit: "count", Better: "lower"},
	{Name: "core.push_fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.probes_per_op", Unit: "count", Better: "lower"},
	{Name: "blobdb.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "blobdb.wal_syncs_per_op", Unit: "count", Better: "lower"},
	{Name: "blobdb.wal_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "gateway.sticky_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gateway.failovers", Unit: "count", Better: "lower"},
	{Name: "tenant.denied", Unit: "count", Better: "lower"},
	{Name: "tenant.queued_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.sut.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "proc.sut.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.sut.goroutines", Unit: "count", Better: "lower"},
	{Name: "proc.grid.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.grid.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gen.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.execute_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.upload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
}

// perLayer lists every per-layer metric in reporting order.
func perLayer() []metricDef {
	var out []metricDef
	for _, r := range rungNames {
		out = append(out,
			metricDef{Name: r + ".ns_per_op", Unit: "ns", Better: "lower"},
			metricDef{Name: r + ".allocs_per_op", Unit: "count", Better: "lower"})
	}
	for _, s := range spanNames {
		out = append(out, metricDef{Name: "span." + s + ".self_ms_per_op", Unit: "ms", Better: "lower"})
	}
	return append(append(out, countDefs...), demoted...)
}

// allMetrics lists every metric a run can report.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer()...)
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// windowSeconds is the timed window. The issue asks for 30 s; the
// builder contract's cap on total run time (92 runs in 3420 s) does
// not admit that, so every workload's window is shortened equally to
// the issue's floor.
const windowSeconds = 15

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench", "cmd/bench"},
		RunSeconds: windowSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{Name: w.name, Why: w.why})
	}
	return m
}
