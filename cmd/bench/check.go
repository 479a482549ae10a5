package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// loadRuns reads the untraced runs of a result file, grouped by
// workload. arg is "file" (every set pooled) or "file:label" (that set
// alone).
func loadRuns(arg string) (map[string][]*runResult, error) {
	path, label, _ := strings.Cut(arg, ":")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]*runResult{}
	found := false
	for _, set := range file.Sets {
		if label != "" && set.Label != label {
			continue
		}
		found = true
		for _, run := range set.Runs {
			if run.Trace == 0 {
				out[run.Workload] = append(out[run.Workload], run)
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("%s: no set %q", path, label)
	}
	return out, nil
}

// runCheck compares side B against side A under the bounds in the
// manifest at bmPath and prints one row per workload × metric. It is
// the driver's acceptance rule: an end-to-end metric breaches when B's
// median is worse than A's by more than its bound, when either side's
// spread (interquartile distance over median) exceeds the bound —
// setup_s excepted, whose spread is reported but not judged — or when a
// run was not correct. The demoted metrics get a row and no verdict.
func runCheck(bmPath, argA, argB string, w io.Writer) error {
	b, err := os.ReadFile(bmPath)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%s: %w", bmPath, err)
	}
	sideA, err := loadRuns(argA)
	if err != nil {
		return err
	}
	sideB, err := loadRuns(argB)
	if err != nil {
		return err
	}

	breaches := 0
	fmt.Fprintf(w, "%-14s %-20s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "change", "bound", "verdict")
	for _, wl := range m.Workloads {
		a, b := sideA[wl.Name], sideB[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "%-14s missing from one side (%d and %d runs)\n", wl.Name, len(a), len(b))
			breaches++
			continue
		}
		for _, run := range append(append([]*runResult(nil), a...), b...) {
			if !run.Correct || run.Failed > 0 {
				fmt.Fprintf(w, "%-14s seed %d: run not correct (%d of %d failed) %s\n",
					wl.Name, run.Seed, run.Failed, run.Attempted, run.Problem)
				breaches++
			}
		}
		for _, d := range m.EndToEnd {
			va, vb := values(a, d.Name), values(b, d.Name)
			ma, mb, change := compare(va, vb, d.Better)
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case ma == 0 || mb == 0:
				verdict = "BREACH: metric reads 0"
			case change > d.Bound:
				verdict = "BREACH: regression"
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "BREACH: spread exceeds bound"
			case d.Name != "setup_s" && (sa > d.Bound/3 || sb > d.Bound/3):
				verdict = "ok (spread over a third of the bound)"
			}
			if strings.HasPrefix(verdict, "BREACH") {
				breaches++
			}
			fmt.Fprintf(w, "%-14s %-20s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, ma, 100*sa, mb, 100*sb, 100*change, 100*d.Bound, verdict)
		}
		for _, d := range demoted {
			va, vb := values(a, d.Name), values(b, d.Name)
			ma, mb, change := compare(va, vb, d.Better)
			fmt.Fprintf(w, "%-14s %-20s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %6s  per-layer, not judged\n",
				wl.Name, d.Name, ma, 100*spread(va), mb, 100*spread(vb), 100*change, "-")
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breach(es)", breaches)
	}
	return nil
}

// compare returns both medians and how much worse B's is, as a share of
// A's.
func compare(va, vb []float64, better string) (ma, mb, change float64) {
	ma, mb = median(va), median(vb)
	change = ratio(mb-ma, ma)
	if better == "higher" {
		change = -change
	}
	return ma, mb, change
}

// values collects one metric over runs.
func values(runs []*runResult, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}
