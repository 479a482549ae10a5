package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/metrics"
)

// TestMain runs the studies where their rigs take a bubble: under
// GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	// "It is notable that the hard disk utilization is very low as well
	// as the amount of data sent to the Grid": the executable is tiny, so
	// total outbound traffic is dominated by protocol + credentials and
	// stays small.
	if sum["net_out_total_b"] > 200<<10 {
		t.Fatalf("small-file invocation sent %v bytes to the grid", sum["net_out_total_b"])
	}
	if sum["net_out_total_b"] < 1<<10 {
		t.Fatalf("implausibly little traffic: %v bytes", sum["net_out_total_b"])
	}
	// Two CPU phases exist (decompress, then submit): peak utilisation is
	// visible but not saturated.
	if sum["cpu_peak_pct"] <= 0 {
		t.Fatal("no CPU activity recorded")
	}
	// Periodic disk writes from the tentative output polling.
	if sum["disk_write_peaks"] < 2 {
		t.Fatalf("expected periodic poll-induced disk writes, got %v peaks", sum["disk_write_peaks"])
	}
	if !strings.Contains(res.Render(), "fig6") {
		t.Fatal("render missing title")
	}
	if !strings.Contains(res.CSV(), "t_sec") {
		t.Fatal("csv missing header")
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	// The ~5MB file crosses the WAN once.
	if sum["net_out_total_b"] < 5<<20 {
		t.Fatalf("upload bytes %v, want >= 5MB", sum["net_out_total_b"])
	}
	// "The transfer rate is almost constant all the time at about 80 to
	// 90 KB/s" — allow a generous band for scheduler jitter.
	if rate := sum["upload_rate_kbps"]; rate < 55 || rate > 110 {
		t.Fatalf("upload plateau rate %.1f KB/s, want ~85", rate)
	}
	// "It takes about 60 seconds to upload the file to the Grid node."
	if plateau := sum["upload_plateau_s"]; plateau < 39 || plateau > 100 {
		t.Fatalf("upload plateau %v s, want ~60", plateau)
	}
	// First disk peak: the temp spill of the full file.
	if sum["disk_write_peak_b"] < 4<<20 {
		t.Fatalf("temp spill peak %v bytes", sum["disk_write_peak_b"])
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	// The LAN delivers the ~5MB file to the portal.
	if sum["net_in_total_b"] < 5<<20 {
		t.Fatalf("portal received %v bytes", sum["net_in_total_b"])
	}
	// Fast network: the whole generation finishes in tens of seconds, not
	// the ~2 minutes the WAN staging of Fig. 7 takes.
	if sum["duration_s"] > 90 {
		t.Fatalf("upload+generate took %v s over the LAN", sum["duration_s"])
	}
	// The double-write flaw: the file hits the disk twice — the 5MB temp
	// spill plus the database insert (slightly smaller after gzip even on
	// near-incompressible content).
	if sum["disk_write_total_b"] < 8<<20 {
		t.Fatalf("disk writes %v bytes, want ~2x the upload", sum["disk_write_total_b"])
	}
	// CPU is busy (reception, container, compression, service build).
	if sum["cpu_peak_pct"] < 20 {
		t.Fatalf("cpu peak %v%%", sum["cpu_peak_pct"])
	}
}

func TestScalabilitySweep(t *testing.T) {
	res, err := Scalability(Options{}, []int{1, 4}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	byKey := map[string]ScalabilityRow{}
	for _, row := range res.Rows {
		byKey[row.Scenario+string(rune('0'+row.Concurrency))] = row
	}
	// WAN-bound invocations degrade with concurrency: 4 concurrent
	// stagings on a shared 85 KB/s link take notably longer than 1.
	inv1, inv4 := byKey["invoke1"], byKey["invoke4"]
	if inv4.MakespanS < inv1.MakespanS*1.8 {
		t.Fatalf("WAN contention missing: 1->%vs, 4->%vs", inv1.MakespanS, inv4.MakespanS)
	}
	// LAN uploads scale far better: makespan grows sublinearly.
	up1, up4 := byKey["upload1"], byKey["upload4"]
	if up4.MakespanS > up1.MakespanS*4 {
		t.Fatalf("LAN uploads degraded superlinearly: 1->%vs, 4->%vs", up1.MakespanS, up4.MakespanS)
	}
	if !strings.Contains(res.Render(), "scalability") || !strings.Contains(res.CSV(), "scenario,") {
		t.Fatal("render/csv malformed")
	}
}

func TestSmallJobs(t *testing.T) {
	res, err := SmallJobs(Options{}, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsPerMinute <= 0 {
		t.Fatalf("throughput %v", res.JobsPerMinute)
	}
	// "The additional overhead added by Cyberaide onServe should be quite
	// small compared to the runtime of a typical executable": per-job
	// overhead stays bounded (well under a minute for tiny files).
	if res.OverheadS > 60 {
		t.Fatalf("per-job overhead %v s", res.OverheadS)
	}
	if !strings.Contains(res.Render(), "jobs/min") {
		t.Fatal("render malformed")
	}
}

func TestAblationDoubleWrite(t *testing.T) {
	res, err := AblationDoubleWrite(Options{}, 512)
	if err != nil {
		t.Fatal(err)
	}
	vals := ablationMap(res)
	if vals["double-write/stock/disk_write_total_kb"] <= vals["double-write/direct/disk_write_total_kb"] {
		t.Fatalf("direct write should reduce disk traffic: %v", vals)
	}
}

func TestAblationStagingCache(t *testing.T) {
	res, err := AblationStagingCache(Options{}, 768, 3)
	if err != nil {
		t.Fatal(err)
	}
	vals := ablationMap(res)
	stock, cache := vals["staging-cache/stock/net_out_total_kb"], vals["staging-cache/cache/net_out_total_kb"]
	if cache >= stock/2 {
		t.Fatalf("cache should cut WAN traffic ~3x: stock %v KB vs cache %v KB", stock, cache)
	}
	if vals["staging-cache/cache/makespan_s"] >= vals["staging-cache/stock/makespan_s"] {
		t.Fatalf("cache no faster than stock: %v", vals)
	}
}

func TestAblationPolling(t *testing.T) {
	res, err := AblationPolling(Options{}, []time.Duration{3 * time.Second, 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	vals := ablationMap(res)
	if vals["poll-interval/3s/poll_disk_write_kb"] <= vals["poll-interval/30s/poll_disk_write_kb"] {
		t.Fatalf("faster polling should write more: %v", vals)
	}
}

func TestAblationCompression(t *testing.T) {
	res, err := AblationCompression(Options{}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	vals := ablationMap(res)
	if vals["compression/slow-512KBps/upload_cpu_total_s"] <= vals["compression/fast-8MBps/upload_cpu_total_s"] {
		t.Fatalf("slower compression should burn more CPU: %v", vals)
	}
}

func ablationMap(res *AblationResult) map[string]float64 {
	out := map[string]float64{}
	for _, row := range res.Rows {
		out[row.Study+"/"+row.Variant+"/"+row.Metric] = row.Value
	}
	return out
}

func TestRecorderResetIsolation(t *testing.T) {
	// Sanity: Reset really drops setup-phase traffic from the series.
	err := withRig(Options{}, func(r *rig) error {
		if err := r.uploadViaPortal("x.gsh", "echo x\n"); err != nil {
			t.Fatal(err)
		}
		r.rec.Reset()
		series := r.rec.Series()
		var total float64
		for _, s := range series {
			total += s.NetInBytes + s.NetOutBytes + s.DiskWriteBytes
		}
		if total != 0 {
			t.Fatalf("series not empty after reset: %v", total)
		}
		_ = metrics.CSV(series)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
