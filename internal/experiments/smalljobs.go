package experiments

import (
	"fmt"
	"strings"
)

// SmallJobsResult quantifies §VIII-B's closing observation: "the provided
// solution is quite good in a scenario using a lot of relatively small
// files. The network limitation doesn't play a huge role in this case and
// K-GRAM permits to submit a large number of jobs quite efficiently."
type SmallJobsResult struct {
	Jobs          int
	Workers       int
	MakespanS     float64
	JobsPerMinute float64
	// OverheadS is the mean middleware overhead per job: wall time per
	// job minus the job's own compute time.
	OverheadS   float64
	ComputeS    float64
	NetOutKB    float64
	DiskWriteKB float64
}

// Render prints the observation.
func (r *SmallJobsResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== many small jobs (§VIII-B) ==\n")
	fmt.Fprintf(&sb, "jobs            %d (workers %d)\n", r.Jobs, r.Workers)
	fmt.Fprintf(&sb, "makespan        %.1f s virtual\n", r.MakespanS)
	fmt.Fprintf(&sb, "throughput      %.1f jobs/min\n", r.JobsPerMinute)
	fmt.Fprintf(&sb, "per-job compute %.1f s, middleware overhead %.1f s\n", r.ComputeS, r.OverheadS)
	fmt.Fprintf(&sb, "net out         %.0f KB total (small: network is not the bottleneck)\n", r.NetOutKB)
	fmt.Fprintf(&sb, "disk writes     %.0f KB total\n", r.DiskWriteKB)
	return sb.String()
}

// SmallJobs submits jobs invocations of a small executable through the
// generated service with the given number of concurrent clients.
func SmallJobs(opts Options, jobs, workers int) (*SmallJobsResult, error) {
	jobs = orDefault(jobs, 50)
	workers = orDefault(workers, 8)
	const computeSeconds = 1.0
	var m measurement
	err := withRig(opts, func(r *rig) error {
		svc, err := r.deploy("tiny.gsh", "compute 1s\necho ok ${i}\n", "i")
		if err != nil {
			return err
		}
		m, err = r.measure(func() error {
			return fanOut(jobs, workers, func(i int) error {
				out, err := svc.call(map[string]string{"i": fmt.Sprint(i)})
				if err == nil && !strings.Contains(out, fmt.Sprintf("ok %d", i)) {
					err = fmt.Errorf("job %d wrong output %q", i, out)
				}
				return err
			})
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: small jobs: %w", err)
	}
	perJobWall := m.seconds * float64(workers) / float64(jobs)
	return &SmallJobsResult{
		Jobs:          jobs,
		Workers:       workers,
		MakespanS:     m.seconds,
		JobsPerMinute: float64(jobs) / (m.seconds / 60),
		ComputeS:      computeSeconds,
		OverheadS:     perJobWall - computeSeconds,
		NetOutKB:      m.sum["net_out_total_b"] / 1024,
		DiskWriteKB:   m.sum["disk_write_total_b"] / 1024,
	}, nil
}
