package experiments

import (
	"strings"
	"testing"
)

func TestBaselineJSE(t *testing.T) {
	res, err := BaselineJSE(Options{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows %+v", res.Rows)
	}
	byModel := map[string]BaselineRow{}
	for _, row := range res.Rows {
		byModel[row.Model] = row
	}
	direct, saas := byModel["jse-direct"], byModel["onserve-saas"]
	// Both paths must actually move the executable across the WAN.
	if direct.WANBytes < 256<<10 || saas.WANBytes < 256<<10 {
		t.Fatalf("staging missing: direct %v, saas %v bytes", direct.WANBytes, saas.WANBytes)
	}
	// The user's scripting burden is the paper's point: 6 protocol
	// interactions collapse to 2.
	if direct.UserSteps <= saas.UserSteps {
		t.Fatalf("steps: direct %d, saas %d", direct.UserSteps, saas.UserSteps)
	}
	// Latencies are the same order of magnitude — the SaaS layer does
	// not change the dominant staging cost.
	if saas.LatencyS > direct.LatencyS*3 || direct.LatencyS > saas.LatencyS*3 {
		t.Fatalf("latencies diverge: direct %.1fs, saas %.1fs", direct.LatencyS, saas.LatencyS)
	}
	if !strings.Contains(res.Render(), "jse-direct") {
		t.Fatal("render malformed")
	}
}
