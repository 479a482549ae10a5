package experiments

import (
	"fmt"
	"strings"
)

// ScalabilityRow is one cell of the §VIII-D sweep.
type ScalabilityRow struct {
	Scenario    string  // "invoke" or "upload"
	Link        string  // "wan" (invoke staging path) or "lan" (upload path)
	Concurrency int     //
	FileKB      int     //
	MakespanS   float64 // virtual seconds until all requests completed
	PerReqS     float64 // makespan / concurrency
	ThroughputR float64 // requests per virtual minute
	CPUPeakPct  float64
}

// ScalabilityResult is the full sweep.
type ScalabilityResult struct {
	Rows  []ScalabilityRow
	Notes []string
}

// Render prints the table the paper's §VIII-D discusses qualitatively.
func (r *ScalabilityResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== scalability (§VIII-D): concurrency sweep ==\n")
	sb.WriteString("scenario  link  conc  file_kb  makespan_s  per_req_s  req_per_min  cpu_peak_pct\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-9s %-5s %4d  %7d  %10.1f  %9.1f  %11.2f  %12.1f\n",
			row.Scenario, row.Link, row.Concurrency, row.FileKB,
			row.MakespanS, row.PerReqS, row.ThroughputR, row.CPUPeakPct)
	}
	return sb.String() + renderNotes(r.Notes)
}

// CSV renders the sweep for EXPERIMENTS.md.
func (r *ScalabilityResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("scenario,link,concurrency,file_kb,makespan_s,per_req_s,req_per_min,cpu_peak_pct\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s,%s,%d,%d,%.1f,%.1f,%.2f,%.1f\n",
			row.Scenario, row.Link, row.Concurrency, row.FileKB,
			row.MakespanS, row.PerReqS, row.ThroughputR, row.CPUPeakPct)
	}
	return sb.String()
}

// Scalability runs the §VIII-D stress scenarios: multiple simultaneous
// Web-service invocations (whose staging shares the WAN) and multiple
// simultaneous portal uploads (which share the LAN and the appliance's
// CPU/disk). The paper's claim: "the solution's scalability is limited
// either by the system's hard disk I/O-performance or its network
// connection's performance", not by CPU or memory.
func Scalability(opts Options, concurrencies []int, fileKB int) (*ScalabilityResult, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{1, 2, 4, 8}
	}
	fileKB = orDefault(fileKB, 256)
	out := &ScalabilityResult{Notes: []string{
		"invoke: staging shares the ~85 KB/s WAN; makespan grows ~linearly with concurrency",
		"upload: the 1000 Mbit/s LAN is not the bottleneck; CPU/disk costs dominate",
	}}
	for _, conc := range concurrencies {
		row, err := scalabilityInvoke(opts, conc, fileKB)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, *row)
	}
	for _, conc := range concurrencies {
		row, err := scalabilityUpload(opts, conc, fileKB)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// scalabilityInvoke measures conc simultaneous invocations of a service
// whose executable is fileKB large (staging contends on the WAN).
func scalabilityInvoke(opts Options, conc, fileKB int) (*ScalabilityRow, error) {
	r, err := newRig(opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	svc, err := r.deploy("sweep.gsh", padded("compute 1s\necho done ${tag}\n", fileKB<<10), "tag")
	if err != nil {
		return nil, err
	}
	m, err := r.measure(func() error {
		return fanOut(conc, 0, func(i int) error {
			_, err := svc.call(map[string]string{"tag": fmt.Sprint(i)})
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: invoke sweep (conc=%d): %w", conc, err)
	}
	return buildRow("invoke", "wan", conc, fileKB, m), nil
}

// scalabilityUpload measures conc simultaneous portal uploads.
func scalabilityUpload(opts Options, conc, fileKB int) (*ScalabilityRow, error) {
	r, err := newRig(opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	program := padded("echo stored\n", fileKB<<10)
	m, err := r.measure(func() error {
		return fanOut(conc, 0, func(i int) error {
			return r.uploadViaPortal(fmt.Sprintf("up%c.gsh", 'a'+i), program)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: upload sweep (conc=%d): %w", conc, err)
	}
	return buildRow("upload", "lan", conc, fileKB, m), nil
}

func buildRow(scenario, link string, conc, fileKB int, m measurement) *ScalabilityRow {
	row := &ScalabilityRow{
		Scenario:    scenario,
		Link:        link,
		Concurrency: conc,
		FileKB:      fileKB,
		MakespanS:   m.seconds,
		PerReqS:     m.seconds / float64(conc),
		CPUPeakPct:  m.sum["cpu_peak_pct"],
	}
	if m.seconds > 0 {
		row.ThroughputR = float64(conc) / (m.seconds / 60)
	}
	return row
}
