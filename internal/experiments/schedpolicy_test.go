package experiments

import (
	"strings"
	"testing"
)

func TestSchedulerPolicies(t *testing.T) {
	// A healthy job keeps 100 ms of host time between finishing and its
	// walltime limit, whatever the workload's slack is: a loaded two-core
	// host, with or without the race detector, does not eat that.
	res, err := SchedulerPolicies(policySlack.Seconds() / 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %+v", res.Rows)
	}
	byPolicy := map[string]SchedulerRow{}
	for _, row := range res.Rows {
		byPolicy[row.Policy] = row
	}
	agg, fcfs, cons := byPolicy["aggressive"], byPolicy["fcfs"], byPolicy["conservative"]

	// Narrow jobs wait least under aggressive backfill (they overtake
	// freely) and most under strict FCFS (they inherit wide jobs' waits).
	if agg.MeanWaitNarrow >= fcfs.MeanWaitNarrow {
		t.Fatalf("narrow waits: aggressive %.1f >= fcfs %.1f", agg.MeanWaitNarrow, fcfs.MeanWaitNarrow)
	}
	// Conservative protects wide jobs relative to aggressive backfill.
	if cons.MeanWaitWideS > agg.MeanWaitWideS {
		t.Fatalf("wide waits: conservative %.1f > aggressive %.1f", cons.MeanWaitWideS, agg.MeanWaitWideS)
	}
	// All policies finish the same work; makespans are the same order.
	for _, row := range res.Rows {
		if row.MakespanS <= 0 || row.MakespanS > 10*agg.MakespanS {
			t.Fatalf("makespan out of range: %+v", row)
		}
	}
	if !strings.Contains(res.Render(), "scheduler policy") {
		t.Fatal("render malformed")
	}
}
