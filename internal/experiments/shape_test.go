package experiments

import (
	"fmt"
	"regexp"
	"testing"
)

// Reduced shape tests for the studies that had none. Each judges counts
// and byte totals, never makespans, and runs in a few real seconds; the
// blobdb one is skipped under -short.

func TestAblationStageShape(t *testing.T) {
	res, err := AblationStage(Options{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "stage.json")
	vals := ablationMap(res)
	for _, variant := range StageVariants {
		if got := vals["stage-cold/"+variant+"/logical_b"]; got < 256<<10 {
			t.Fatalf("%s staged %v logical bytes, want >= 256 KB", variant, got)
		}
	}
	// Cold: shipping the stored gzip stream is the only way to put fewer
	// bytes on the WAN than the file holds; raw chunking ships the same
	// bytes as stock plus its manifest and probes.
	stock, chunked, gz := vals["stage-cold/stock/wan_wire_b"], vals["stage-cold/chunked/wan_wire_b"], vals["stage-cold/chunked-gzip/wan_wire_b"]
	if !(gz < chunked && gz < stock) {
		t.Fatalf("cold wire: chunked-gzip %v should undercut chunked %v and stock %v", gz, chunked, stock)
	}
	if got := vals["stage-cold/chunked/chunk_wire_b"]; got != vals["stage-cold/chunked/logical_b"] {
		t.Fatalf("raw chunking shipped %v chunk bytes for a %v byte file", got, vals["stage-cold/chunked/logical_b"])
	}
	if vals["stage-cold/chunked-gzip/wire_reduction_x"] <= 1 {
		t.Fatalf("wire_reduction_x %v, want > 1", vals["stage-cold/chunked-gzip/wire_reduction_x"])
	}
	// Re-publish: one edited chunk crosses the WAN, not the file — the
	// ordering the dedup claim rests on is chunked-gzip, chunked < stock.
	rstock, rchunked, rgz := vals["stage-republish/stock/wan_wire_b"], vals["stage-republish/chunked/wan_wire_b"], vals["stage-republish/chunked-gzip/wan_wire_b"]
	if !(rchunked < rstock && rgz < rstock) {
		t.Fatalf("re-publish wire: chunked %v and chunked-gzip %v should undercut stock %v", rchunked, rgz, rstock)
	}
	if cold, repub := vals["stage-cold/chunked/chunks_shipped"], vals["stage-republish/chunked/chunks_shipped"]; repub >= cold || repub < 1 {
		t.Fatalf("re-publish shipped %v chunks against %v cold", repub, cold)
	}
	if vals["stage-republish/chunked/chunks_deduped"] < 1 {
		t.Fatal("re-publish deduped nothing")
	}
	// Resume: the chunked retry picks up committed chunks, stock restarts.
	if got := vals["stage-resume/chunked/retry_chunks_resumed"]; got < 1 {
		t.Fatalf("chunked retry resumed %v chunks", got)
	}
	if c, s := vals["stage-resume/chunked/retry_wire_b"], vals["stage-resume/stock/retry_wire_b"]; c >= s {
		t.Fatalf("chunked retry shipped %v bytes, stock %v", c, s)
	}
}

func TestAblationStageUnknownVariant(t *testing.T) {
	if _, err := AblationStage(Options{}, 64, "nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestAblationFleetShape(t *testing.T) {
	const burst = 8
	res, err := AblationFleet([]int{1, 2}, burst)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "fleet.json")
	vals := ablationMap(res)
	for _, n := range []int{1, 2} {
		key := fmt.Sprintf("fleet-%d/scale-out/", n)
		if got := vals[key+"appliances"]; got != float64(n) {
			t.Fatalf("%s appliances %v", key, got)
		}
		if got := vals[key+"completed"]; got != burst {
			t.Fatalf("%s completed %v of %d", key, got, burst)
		}
		if got := vals[key+"stickiness_pct"]; got != 100 {
			t.Fatalf("%s stickiness %v%%, want 100", key, got)
		}
		// The staging cache is off: every invocation stages and submits.
		if vals[key+"uploads"] != burst || vals[key+"submit_rpcs"] != burst {
			t.Fatalf("%s uploads %v, submit_rpcs %v, want %d each", key, vals[key+"uploads"], vals[key+"submit_rpcs"], burst)
		}
	}
	// The kill-one leg the study always appends (at fleet 4) ...
	if got := vals["fleet-4/kill-1/completed"]; got != burst {
		t.Fatalf("fleet-4 kill-1 completed %v of %d", got, burst)
	}
	// ... and the same at fleet 2, where the survivor inherits everything.
	rows, err := fleetBurst("fleet-2", "kill-1", 2, burst, true)
	if err != nil {
		t.Fatal(err)
	}
	vals = ablationMap(&AblationResult{Rows: rows})
	if got := vals["fleet-2/kill-1/completed"]; got != burst {
		t.Fatalf("fleet-2 kill-1 completed %v of %d", got, burst)
	}
	if got := vals["fleet-2/kill-1/shards_used"]; got != 1 {
		t.Fatalf("fleet-2 kill-1 left %v live shards with work, want 1", got)
	}
}

// TestFleetRigIsInProcess: every endpoint of the fleet rig — gatekeeper,
// MyProxy, front door, both GridFTP sites and both shards — is on the
// rig's pipes, so no goroutine waits on a socket, which would hold the
// bubble's clock.
func TestFleetRigIsInProcess(t *testing.T) {
	err := withFleetRig(2, func(r *fleetRig) error {
		all := fmt.Sprint(r.env.GramURL, " http://", r.env.MyProxyAddr, " ", r.gw.BaseURL, " ", r.env.FTPURLs["ncsa-abe"],
			" ", r.env.FTPURLs["sdsc-ds"], " ", r.gw.Fleet()[0].BaseURL, " ", r.gw.Fleet()[1].BaseURL)
		if !regexp.MustCompile(`^http://pipe[0-9]+:80( http://pipe[0-9]+:80){6}$`).MatchString(all) {
			t.Fatalf("endpoints %s, want seven on the rig's pipes", all)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceBreakdownShape(t *testing.T) {
	res, err := TraceBreakdown(Options{}, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"small-stock", "small-production", "large-stock", "large-production"}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		if row.Scenario != want[i] {
			t.Fatalf("scenario %d is %q, want %q", i, row.Scenario, want[i])
		}
		if row.Ticket == "" || row.SpanCount == 0 || row.WallMS <= 0 {
			t.Fatalf("%s: empty trace: %+v", row.Scenario, row)
		}
		if row.Orphans != 0 {
			t.Fatalf("%s: %d orphan span(s)", row.Scenario, row.Orphans)
		}
		count := map[string]int{}
		for _, b := range row.Breakdown {
			count[b.Name] += b.Count
		}
		// One root, and the paper's five steps under it.
		if count["invoke"] != 1 {
			t.Fatalf("%s: %d root invoke spans", row.Scenario, count["invoke"])
		}
		for _, name := range []string{"db.fetch", "logon", "stage", "submit", "collect"} {
			if count[name] < 1 {
				t.Fatalf("%s: no %s span in %v", row.Scenario, name, count)
			}
		}
		if len(row.Services) < 2 {
			t.Fatalf("%s: spans from %v only, want a cross-service tree", row.Scenario, row.Services)
		}
	}
}

func TestAblationBlobDBShape(t *testing.T) {
	if testing.Short() {
		t.Skip("writes ~400 MB of WAL")
	}
	// The replay leg itself errors unless Open recovers every record.
	res, err := AblationBlobDB(2000)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "blobdb.json")
	vals := ablationMap(res)
	for _, shards := range []int{1, 4, 16} {
		variant := fmt.Sprintf("shards-%d", shards)
		for _, metric := range []string{"puts_per_s", "p99_put_ms"} {
			if got := vals["blobdb-load/"+variant+"/"+metric]; got <= 0 {
				t.Fatalf("%s %s = %v", variant, metric, got)
			}
		}
		for _, metric := range []string{"segments_retired", "snapshots"} {
			if _, ok := vals["blobdb-load/"+variant+"/"+metric]; !ok {
				t.Fatalf("%s: no %s row", variant, metric)
			}
		}
		if _, ok := vals["blobdb-replay/"+variant+"/open_ms"]; !ok {
			t.Fatalf("%s: no open_ms row", variant)
		}
		if got := vals["blobdb-replay/"+variant+"/records_per_s"]; got <= 0 {
			t.Fatalf("%s replay rate %v", variant, got)
		}
	}
	if len(res.Rows) != 3*6 {
		t.Fatalf("%d rows, want 18", len(res.Rows))
	}
}
