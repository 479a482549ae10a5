package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// smallProgram is the Fig. 6 workload: "a very small file (some bytes)".
// It computes briefly, emits output periodically (so the tentative
// poller has something to write to disk), and finishes.
const smallProgram = "# tiny grid job\ncompute 2s\nemit 9s 3 partial-output ${tag}\necho final ${tag}\n"

// largeProgramSize is Fig. 7's "much larger file (~5MB)".
const largeProgramSize = 5 << 20

// Fig6 reproduces "Web service execution: CPU utilization, network and
// hard disk I/O (3 seconds interval)". Expected shape: hard-disk use very
// low; traffic dominated by the security credential exchange; one CPU
// phase when the file is loaded and decompressed from the database and a
// second when the job is created and submitted; periodic disk writes
// from the tentative output polling.
func Fig6(opts Options) (*Result, error) {
	r, err := newRig(opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	svc, err := r.deploy("smalljob.gsh", smallProgram, "tag")
	if err != nil {
		return nil, err
	}

	// Measurement covers only the Web-service execution.
	m, err := r.measure(func() error {
		out, err := svc.call(map[string]string{"tag": "fig6"})
		if err == nil && !strings.Contains(out, "final fig6") {
			err = fmt.Errorf("experiments: unexpected job output %q", out)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	series, sum := m.series, m.sum
	sum["disk_write_peaks"] = float64(countPeaks(series,
		func(s metrics.Sample) float64 { return s.DiskWriteBytes }, 1))
	return &Result{
		Name:    "fig6",
		Title:   "Web service execution, small file: CPU, network, disk I/O (3s interval)",
		Series:  series,
		Summary: sum,
		Notes: []string{
			"hard disk utilisation is very low, as is the data sent to the Grid",
			"a relatively large part of the traffic is the security credential request and answer",
			"CPU peaks: DB load+decompress, then job creation+submission",
			"periodic hard-disk write peaks from tentative output polling",
		},
	}, nil
}

// Fig7 reproduces "Web service execution, larger file: network and hard
// disk I/O (3 seconds interval)". Expected shape: the first disk peak is
// the temporary spill; the upload then saturates the WAN at a nearly
// constant 80-90 KB/s for about 60 seconds; the disk is not the limiting
// factor.
func Fig7(opts Options) (*Result, error) {
	r, err := newRig(opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	svc, err := r.deploy("bigjob.gsh", padded(smallProgram, largeProgramSize), "tag")
	if err != nil {
		return nil, err
	}
	m, err := r.measure(func() error { _, err := svc.call(map[string]string{"tag": "fig7"}); return err })
	if err != nil {
		return nil, err
	}
	series, sum := m.series, m.sum

	// Estimate the upload plateau: buckets where outbound traffic is
	// within half of the per-bucket WAN capacity.
	capacity := 85.0 * 1024 * bucketS // bytes per bucket at 85 KB/s
	plateau := 0
	var plateauBytes float64
	for _, s := range series {
		if s.NetOutBytes > capacity/2 {
			plateau++
			plateauBytes += s.NetOutBytes
		}
	}
	sum["upload_plateau_s"] = float64(plateau) * bucketS
	if plateau > 0 {
		sum["upload_rate_kbps"] = plateauBytes / float64(plateau) / bucketS / 1024
	}
	return &Result{
		Name:    "fig7",
		Title:   "Web service execution, ~5MB file: network and disk I/O (3s interval)",
		Series:  series,
		Summary: sum,
		Notes: []string{
			"first disk peak: the file is written temporarily to the hard disk",
			"the network, not the disk, is the limiting factor",
			"the transfer rate is almost constant at about 80 to 90 KB/s",
			"the upload takes on the order of 60 seconds",
		},
	}, nil
}

// Fig8 reproduces "Upload file and generate Web service: CPU utilization,
// network and hard disk I/O (3 seconds interval)". Expected shape: a tall
// network-input peak (the 1000 Mbit/s LAN delivering the file), high CPU
// (reception + container request handling + compression + service
// build), and two disk-write peaks — the temporary file and the database
// insert — the paper's double-write flaw.
func Fig8(opts Options) (*Result, error) {
	r, err := newRig(opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	program := padded(smallProgram, largeProgramSize)
	m, err := r.measure(func() error { return r.uploadViaPortal("genjob.gsh", program, "tag") })
	if err != nil {
		return nil, err
	}
	series, sum := m.series, m.sum
	sum["disk_write_peaks"] = float64(countPeaks(series,
		func(s metrics.Sample) float64 { return s.DiskWriteBytes }, float64(largeProgramSize)/4))
	return &Result{
		Name:    "fig8",
		Title:   "Upload file and generate Web service: CPU, network, disk I/O (3s interval)",
		Series:  series,
		Summary: sum,
		Notes: []string{
			"high network-input peak: the 1000 Mbit/s LAN delivers the file quickly",
			"CPU is high while receiving/storing the file and building the service",
			"two disk-write activity phases: the file is written twice (temp file, then database)",
		},
	}, nil
}
