package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultsDir is the checked-in results/ directory, seen from this package.
const resultsDir = "../../results"

// TestStudyTable pins the table against the checked-in artifacts: names
// and artifact names are unique, every artifact a study names exists in
// results/, and every file there (the BENCH_<pr>.json trajectory aside)
// is the artifact of exactly one study.
func TestStudyTable(t *testing.T) {
	names, owner := map[string]bool{}, map[string]string{}
	for _, s := range Studies {
		if s.Name == "" || s.Help == "" || s.Run == nil {
			t.Errorf("incomplete entry %+v", s)
		}
		if names[s.Name] {
			t.Errorf("study name %q appears twice", s.Name)
		}
		names[s.Name] = true
		if s.Artifact == "" {
			continue
		}
		if other, dup := owner[s.Artifact]; dup {
			t.Errorf("artifact %q belongs to both %s and %s", s.Artifact, other, s.Name)
		}
		owner[s.Artifact] = s.Name
		if ext := filepath.Ext(s.Artifact); ext != ".csv" && ext != ".json" {
			t.Errorf("%s: artifact %q is neither .csv nor .json", s.Name, s.Artifact)
		}
		if _, err := os.Stat(filepath.Join(resultsDir, s.Artifact)); err != nil {
			t.Errorf("%s: artifact not checked in: %v", s.Name, err)
		}
	}
	entries, err := os.ReadDir(resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "BENCH_") {
			continue
		}
		if owner[e.Name()] == "" {
			t.Errorf("results/%s is no study's artifact", e.Name())
		}
	}
}

// pinKeys asserts that every (Study, Variant, Metric) row of res is a row
// of the checked-in results/<file> too, for each Study that file covers
// (a reduced run may sweep sizes the production run does not). A renamed
// metric is then a red test, not a silent drift of the result schema.
func pinKeys(t *testing.T, res *AblationResult, file string) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(resultsDir, file))
	if err != nil {
		t.Fatal(err)
	}
	var checkedIn AblationResult
	if err := json.Unmarshal(blob, &checkedIn); err != nil {
		t.Fatalf("results/%s: %v", file, err)
	}
	covered, known := map[string]bool{}, map[AblationRow]bool{}
	for _, row := range checkedIn.Rows {
		covered[row.Study] = true
		row.Value = 0
		known[row] = true
	}
	pinned := 0
	for _, row := range res.Rows {
		if !covered[row.Study] {
			continue
		}
		pinned++
		row.Value = 0
		if !known[row] {
			t.Errorf("row %s/%s/%s is not in results/%s", row.Study, row.Variant, row.Metric, file)
		}
	}
	if pinned == 0 {
		t.Errorf("results/%s covers none of the studies this run produced", file)
	}
}

// TestResultRenderIsStable: Summary is a map, and Render once printed it
// in iteration order, so the same figure rendered differently run to run.
func TestResultRenderIsStable(t *testing.T) {
	res := &Result{Name: "fig0", Title: "stable", Summary: map[string]float64{}}
	for _, k := range []string{"net_out_total_b", "cpu_peak_pct", "duration_s", "disk_write_peaks",
		"net_in_total_b", "cpu_total_s", "disk_read_total_b", "upload_rate_kbps"} {
		res.Summary[k] = float64(len(k))
	}
	first := res.Render()
	for i := 0; i < 20; i++ {
		if again := res.Render(); again != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, again, first)
		}
	}
	if cpu, net := strings.Index(first, "summary: cpu_peak_pct"), strings.Index(first, "summary: net_out_total_b"); cpu < 0 || net < cpu {
		t.Fatalf("summary keys not sorted:\n%s", first)
	}
}
