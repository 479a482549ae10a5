package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/appliance"
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

// variant is one column of a study: a name and the knobs it turns on top
// of the study's shared configuration (nil: none, the stock column).
type variant struct {
	name  string
	knobs func(*appliance.Config)
}

// variantTable is a study's variants in the order they are reported.
// what names the study in errors ("unknown hot-path variant").
type variantTable struct {
	what string
	all  []variant
}

func (t variantTable) names() []string {
	names := make([]string, len(t.all))
	for i, v := range t.all {
		names[i] = v.name
	}
	return names
}

// pick returns the table cut down to names, in the order given; no names
// picks every variant.
func (t variantTable) pick(names ...string) (variantTable, error) {
	if len(names) == 0 {
		return t, nil
	}
	picked := variantTable{what: t.what}
next:
	for _, name := range names {
		for _, v := range t.all {
			if v.name == name {
				picked.all = append(picked.all, v)
				continue next
			}
		}
		return picked, fmt.Errorf("experiments: unknown %s variant %q", t.what, name)
	}
	return picked, nil
}

// run boots one rig per variant — o with the variant's knobs applied —
// runs body on it and shuts it down.
func (t variantTable) run(o Options, body func(variant string, r *rig) error) error {
	for _, v := range t.all {
		vo := o
		if v.knobs != nil {
			v.knobs(&vo.Appliance)
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

var doubleWriteTable = variantTable{"double-write", []variant{
	{"stock", nil},
	{"direct", func(c *appliance.Config) { c.DirectDBWrite = true }},
}}

// AblationDoubleWrite compares the paper's temp-file-then-database store
// path against direct-to-database streaming (§VIII-D3 calls the former
// "not optimal and may lead to performance drops").
func AblationDoubleWrite(opts Options, fileKB int) (*AblationResult, error) {
	fileKB = orDefault(fileKB, 1024)
	res := &AblationResult{Notes: []string{
		"stock spills the upload to a temp file and reads it back before the DB insert",
		"direct streams the upload straight into the database",
	}}
	err := doubleWriteTable.run(opts, func(variant string, r *rig) error {
		m, err := r.timedUpload("ab.gsh", fileKB)
		if err != nil {
			return err
		}
		row := res.at("double-write", variant)
		row("disk_write_total_kb", m.sum["disk_write_total_b"]/1024)
		row("upload_latency_s", m.seconds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

var stagingCacheTable = variantTable{"staging-cache", []variant{
	{"stock", nil},
	{"cache", func(c *appliance.Config) { c.StagingCache = true }},
}}

// AblationStagingCache compares re-uploading the executable on every
// invocation (the paper's behaviour) against a content-hash staging
// cache (the paper's suggested "upload strategy that avoids frequent
// uploads of the same file").
func AblationStagingCache(opts Options, fileKB, invocations int) (*AblationResult, error) {
	fileKB = orDefault(fileKB, 512)
	invocations = orDefault(invocations, 3)
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d invocations of a %d KB executable over the ~85 KB/s WAN", invocations, fileKB),
		"the cache pays the upload once; stock pays it per invocation",
	}}
	// Fine polling keeps completion-detection quantisation from drowning
	// the staging-time difference under comparison.
	opts.Appliance.PollInterval = 3 * time.Second
	err := stagingCacheTable.run(opts, func(variant string, r *rig) error {
		m, err := r.backToBack("cachejob.gsh", fileKB, invocations)
		if err != nil {
			return err
		}
		row := res.at("staging-cache", variant)
		row("net_out_total_kb", m.sum["net_out_total_b"]/1024)
		row("makespan_s", m.seconds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// backToBack deploys a fileKB one-second job and measures invocations
// sequential calls of it.
func (r *rig) backToBack(fileName string, fileKB, invocations int) (measurement, error) {
	svc, err := r.deploy(fileName, padded("compute 1s\necho ok\n", fileKB<<10))
	if err != nil {
		return measurement{}, err
	}
	return r.measure(func() error {
		for i := 0; i < invocations; i++ {
			if _, err := svc.call(nil); err != nil {
				return err
			}
		}
		return nil
	})
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
			func(c *appliance.Config) { c.PollInterval = interval }})
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
func compressAt(bps float64) func(*appliance.Config) {
	return func(c *appliance.Config) {
		c.Cost = metrics.DefaultCost()
		c.Cost.CompressBps = bps
		c.Cost.DecompressBps = 3 * bps
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
