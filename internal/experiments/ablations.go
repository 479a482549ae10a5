package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/wsclient"
)

// AblationRow compares one design variant against the paper's stock
// behaviour.
type AblationRow struct {
	Study   string
	Variant string
	// Metric name and value (lower is better for all studies).
	Metric string
	Value  float64
}

// AblationResult is a set of comparison rows.
type AblationResult struct {
	Rows  []AblationRow
	Notes []string
}

// Render prints the comparison table.
func (r *AblationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== ablations (design choices called out in DESIGN.md) ==\n")
	sb.WriteString("study           variant          metric                 value\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-15s %-16s %-22s %10.2f\n", row.Study, row.Variant, row.Metric, row.Value)
	}
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// AblationDoubleWrite compares the paper's temp-file-then-database store
// path against direct-to-database streaming (§VIII-D3 calls the former
// "not optimal and may lead to performance drops").
func AblationDoubleWrite(opts Options, fileKB int) (*AblationResult, error) {
	if fileKB <= 0 {
		fileKB = 1024
	}
	res := &AblationResult{Notes: []string{
		"stock spills the upload to a temp file and reads it back before the DB insert",
		"direct streams the upload straight into the database",
	}}
	for _, variant := range []struct {
		name   string
		direct bool
	}{{"stock", false}, {"direct", true}} {
		o := opts
		o.Appliance.DirectDBWrite = variant.direct
		r, err := newRig(o)
		if err != nil {
			return nil, err
		}
		program := string(gsh.Pad([]byte("echo x\n"), fileKB<<10))
		r.rec.Reset()
		start := r.clock.Now()
		if err := r.uploadViaPortal("ab.gsh", program); err != nil {
			r.close()
			return nil, err
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		res.Rows = append(res.Rows,
			AblationRow{Study: "double-write", Variant: variant.name, Metric: "disk_write_total_kb", Value: sum["disk_write_total_b"] / 1024},
			AblationRow{Study: "double-write", Variant: variant.name, Metric: "upload_latency_s", Value: elapsed},
		)
		r.close()
	}
	return res, nil
}

// AblationStagingCache compares re-uploading the executable on every
// invocation (the paper's behaviour) against a content-hash staging
// cache (the paper's suggested "upload strategy that avoids frequent
// uploads of the same file").
func AblationStagingCache(opts Options, fileKB, invocations int) (*AblationResult, error) {
	if fileKB <= 0 {
		fileKB = 512
	}
	if invocations <= 0 {
		invocations = 3
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d invocations of a %d KB executable over the ~85 KB/s WAN", invocations, fileKB),
		"the cache pays the upload once; stock pays it per invocation",
	}}
	for _, variant := range []struct {
		name  string
		cache bool
	}{{"stock", false}, {"cache", true}} {
		o := opts
		o.Appliance.StagingCache = variant.cache
		// Fine polling keeps completion-detection quantisation from
		// drowning the staging-time difference under comparison.
		o.Appliance.PollInterval = 3 * time.Second
		r, err := newRig(o)
		if err != nil {
			return nil, err
		}
		program := string(gsh.Pad([]byte("compute 1s\necho ok\n"), fileKB<<10))
		if err := r.uploadViaPortal("cachejob.gsh", program); err != nil {
			r.close()
			return nil, err
		}
		proxy, err := wsclient.ImportURL(r.app.BaseURL+"/services/CachejobService", r.userHTTP)
		if err != nil {
			r.close()
			return nil, err
		}
		r.rec.Reset()
		start := r.clock.Now()
		for i := 0; i < invocations; i++ {
			ticket, err := proxy.Invoke("execute", nil)
			if err != nil {
				r.close()
				return nil, err
			}
			if _, err := proxy.Invoke("wait", map[string]string{"ticket": ticket}); err != nil {
				r.close()
				return nil, err
			}
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		res.Rows = append(res.Rows,
			AblationRow{Study: "staging-cache", Variant: variant.name, Metric: "net_out_total_kb", Value: sum["net_out_total_b"] / 1024},
			AblationRow{Study: "staging-cache", Variant: variant.name, Metric: "makespan_s", Value: elapsed},
		)
		r.close()
	}
	return res, nil
}

// AblationPolling sweeps the tentative-poll interval, quantifying the
// paper's worry that the workaround "may result in a service customer
// that requests the application's output more often than necessary which
// may reduce the network performance even more".
func AblationPolling(opts Options, intervals []time.Duration) (*AblationResult, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{3 * time.Second, 9 * time.Second, 30 * time.Second}
	}
	res := &AblationResult{Notes: []string{
		"a 60s job polled at each interval; faster polling means more traffic and disk writes",
		"but slower polling delays completion detection (latency beyond job end)",
	}}
	for _, interval := range intervals {
		variant := interval.String()
		o := opts
		o.Appliance.PollInterval = interval
		r, err := newRig(o)
		if err != nil {
			return nil, err
		}
		if err := r.uploadViaPortal("polljob.gsh", "emit 6s 10 progress-line\n"); err != nil {
			r.close()
			return nil, err
		}
		proxy, err := wsclient.ImportURL(r.app.BaseURL+"/services/PolljobService", r.userHTTP)
		if err != nil {
			r.close()
			return nil, err
		}
		r.rec.Reset()
		start := r.clock.Now()
		ticket, err := proxy.Invoke("execute", nil)
		if err != nil {
			r.close()
			return nil, err
		}
		if _, err := proxy.Invoke("wait", map[string]string{"ticket": ticket}); err != nil {
			r.close()
			return nil, err
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		res.Rows = append(res.Rows,
			AblationRow{Study: "poll-interval", Variant: variant, Metric: "poll_disk_write_kb", Value: sum["disk_write_total_b"] / 1024},
			AblationRow{Study: "poll-interval", Variant: variant, Metric: "completion_latency_s", Value: elapsed - 60},
		)
		r.close()
	}
	return res, nil
}

// AblationCompression sweeps the database's modelled compression cost,
// showing the decompress CPU peak of Fig. 6 against the bytes the blob
// store holds.
func AblationCompression(opts Options, fileKB int) (*AblationResult, error) {
	if fileKB <= 0 {
		fileKB = 2048
	}
	res := &AblationResult{Notes: []string{
		"slower (stronger) compression raises the upload-time CPU cost",
		"the stored blob size depends only on gzip and the payload, not the model",
	}}
	for _, variant := range []struct {
		name string
		bps  float64
	}{{"fast-8MBps", 8 << 20}, {"slow-512KBps", 512 << 10}} {
		cost := metrics.DefaultCost()
		cost.CompressBps = variant.bps
		cost.DecompressBps = 3 * variant.bps
		o := opts
		o.Cost = &cost
		r, err := newRig(o)
		if err != nil {
			return nil, err
		}
		program := string(gsh.Pad([]byte("echo x\n"), fileKB<<10))
		r.rec.Reset()
		start := r.clock.Now()
		if err := r.uploadViaPortal("zip.gsh", program); err != nil {
			r.close()
			return nil, err
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		res.Rows = append(res.Rows,
			AblationRow{Study: "compression", Variant: variant.name, Metric: "upload_cpu_total_s", Value: sum["cpu_total_s"]},
			AblationRow{Study: "compression", Variant: variant.name, Metric: "upload_latency_s", Value: elapsed},
		)
		r.close()
	}
	return res, nil
}
