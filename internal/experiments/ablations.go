package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gsh"
	"repro/internal/metrics"
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
	return sb.String() + renderNotes(r.Notes)
}

// at returns a function appending one study/variant's rows in order.
func (r *AblationResult) at(study, variant string) func(metric string, v float64) {
	return func(metric string, v float64) {
		r.Rows = append(r.Rows, AblationRow{Study: study, Variant: variant, Metric: metric, Value: v})
	}
}

// variant is one column of a study: a name and what it sets on top of
// the study's shared Options (nil: nothing, the stock column).
type variant struct {
	name string
	set  func(*Options)
}

// variantTable is a study's variants in the order they are reported.
// what names the study in errors.
type variantTable struct {
	what string
	all  []variant
}

// run boots one rig per variant — o with the variant's settings applied
// — runs body on it and shuts it down.
func (t variantTable) run(o Options, body func(variant string, r *rig) error) error {
	for _, v := range t.all {
		vo := o
		if v.set != nil {
			v.set(&vo)
		}
		err := withRig(vo, func(r *rig) error { return body(v.name, r) })
		if err != nil {
			return fmt.Errorf("experiments: %s %s: %w", t.what, v.name, err)
		}
	}
	return nil
}

// padded returns a program of size bytes that runs script.
func padded(script string, size int) string {
	return string(gsh.Pad([]byte(script), size))
}

// timedUpload measures one portal upload of a fileKB program.
func (r *rig) timedUpload(fileName string, fileKB int) (measurement, error) {
	program := padded("echo x\n", fileKB<<10)
	return r.measure(func() error { return r.uploadViaPortal(fileName, program) })
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
	table := variantTable{what: "poll-interval"}
	for _, interval := range intervals {
		table.all = append(table.all, variant{interval.String(),
			func(o *Options) { o.Appliance.PollInterval = interval }})
	}
	err := table.run(opts, func(variant string, r *rig) error {
		svc, err := r.deploy("polljob.gsh", "emit 6s 10 progress-line\n")
		if err != nil {
			return err
		}
		m, err := r.measure(func() error { _, err := svc.call(nil); return err })
		if err != nil {
			return err
		}
		row := res.at("poll-interval", variant)
		row("poll_disk_write_kb", m.sum["disk_write_total_b"]/1024)
		row("completion_latency_s", m.seconds-60)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// compressAt is the default cost model with gzip running at bps.
func compressAt(bps float64) func(*Options) {
	return func(o *Options) {
		o.Cost = metrics.DefaultCost()
		o.Cost.CompressBps, o.Cost.DecompressBps = bps, 3*bps
	}
}

var compressionTable = variantTable{"compression", []variant{
	{"fast-8MBps", compressAt(8 << 20)},
	{"slow-512KBps", compressAt(512 << 10)},
}}

// AblationCompression sweeps the database's modelled compression cost,
// showing the decompress CPU peak of Fig. 6 against the bytes the blob
// store holds.
func AblationCompression(opts Options, fileKB int) (*AblationResult, error) {
	fileKB = orDefault(fileKB, 2048)
	res := &AblationResult{Notes: []string{
		"slower (stronger) compression raises the upload-time CPU cost",
		"the stored blob size depends only on gzip and the payload, not the model",
	}}
	err := compressionTable.run(opts, func(variant string, r *rig) error {
		m, err := r.timedUpload("zip.gsh", fileKB)
		if err != nil {
			return err
		}
		row := res.at("compression", variant)
		row("upload_cpu_total_s", m.sum["cpu_total_s"])
		row("upload_latency_s", m.seconds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
