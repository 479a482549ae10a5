package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestMain lets the test binary play the child roles: spawn re-executes
// os.Executable(), which under `go test` is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-role" {
		if err := runChild(os.Args[2], os.Stdin, os.Stdout); err != nil {
			os.Stderr.WriteString("bench child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10},
	} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile([7], 99) = %v, want 7", got)
	}
}

func TestSliceMedian(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, nan, 1, 100}, 5}, // an empty slice is skipped, an outlier cannot move the middle
		{[]float64{nan, nan}, 0},
		{nil, 0},
	} {
		if got := sliceMedian(tc.in); got != tc.want {
			t.Errorf("sliceMedian(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(vs, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1.5, 2.5, 2.5, 2.75, 3.25, 4.75}, 2.25, 3.625},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1 (5.5 over 5.5)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := func(id, parent string, from, to int) trace.SpanData {
		return trace.SpanData{SpanID: id, ParentID: parent, Start: at(from), End: at(to)}
	}
	spans := []trace.SpanData{
		sp("root", "", 0, 10),
		sp("a", "root", 1, 4),
		sp("b", "root", 3, 6),      // overlaps a: the union is 1..6, not 3+3
		sp("c", "root", 8, 15),     // outlives root: clipped to 8..10 there
		sp("c1", "c", 9, 11),       // inside c, past root's end
		sp("orphan", "gone", 2, 5), // parent never recorded
		sp("early", "b", 0, 4),     // starts before its parent: clipped to 3..4
	}
	want := map[string]int{
		"root":   3, // 10 - (5 + 2)
		"a":      3,
		"b":      2, // 3 - 1
		"c":      5, // 7 - 2: its own duration is not clipped
		"c1":     2,
		"orphan": 3,
		"early":  4,
	}
	got := selfTimes(spans)
	for id, ms := range want {
		if got[id] != time.Duration(ms)*time.Millisecond {
			t.Errorf("self time of %s = %v, want %d ms", id, got[id], ms)
		}
	}
}

func TestUnionLength(t *testing.T) {
	t0 := time.Unix(0, 0)
	iv := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Second), t0.Add(time.Duration(b) * time.Second)}
	}
	for _, tc := range []struct {
		in   []interval
		want int
	}{
		{nil, 0},
		{[]interval{iv(0, 2), iv(1, 3)}, 3},
		{[]interval{iv(5, 6), iv(0, 1)}, 2},
		{[]interval{iv(0, 10), iv(2, 3), iv(4, 5)}, 10},
		{[]interval{iv(3, 3), iv(4, 2)}, 0}, // empty and inverted intervals cover nothing
	} {
		if got := unionLength(tc.in); got != time.Duration(tc.want)*time.Second {
			t.Errorf("unionLength(%v) = %v, want %ds", tc.in, got, tc.want)
		}
	}
}

// TestManifest checks the names against the builder contract's limits
// and the checked-in BENCHMARK.json against the code that prints the
// metrics, so the two cannot drift.
func TestManifest(t *testing.T) {
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > m.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup || m.EndToEnd[0].Name != "setup_s" {
		t.Error("the first end-to-end metric must be setup_s, in s, lower is better")
	}
	for _, d := range allMetrics() {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if len(rungNames) != 30 {
		t.Errorf("%d rungs, want 30", len(rungNames))
	}

	checkedIn, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkedIn, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	if len(checkedIn) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(checkedIn))
	}
}

func smokeOpts(t *testing.T, workload string) runOpts {
	o := defaultRunOpts()
	o.workload = workload
	o.window = 300 * time.Millisecond
	o.warm = 100 * time.Millisecond
	o.setups = 1
	o.tracedOps = 20
	o.rungBenchtime = "1x"
	o.tmp = t.TempDir()
	return o
}

// TestSmokeEveryWorkload re-executes the test binary as grid and sut and
// runs every workload for a 300 ms window. Nothing is asserted about
// timings: only that every op returned its own n, that the stack's
// counters agree, and that every end-to-end metric was measured.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(smokeOpts(t, w.name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Problem)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			for _, d := range demoted[:4] { // the timings; fail_ratio is 0
				if v := res.Metrics[d.Name]; !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value", d.Name, v)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced path once, on the workload with the
// most processes' worth of spans, and checks that the trees join up
// across the three processes.
func TestSmokeTraced(t *testing.T) {
	o := smokeOpts(t, "fleet_tenants")
	o.traced = true
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%t failed=%d: %s", res.Correct, res.Failed, res.Problem)
	}
	for _, d := range perLayer() {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s = %+v, want a value in %s", d.Name, v, d.Unit)
		}
	}
	for _, name := range []string{
		"span.client.execute.self_ms_per_op", // recorded by the harness
		"span.route.self_ms_per_op",          // by the gateway, in the sut child
		"span.invoke.self_ms_per_op",         // by an appliance behind it
		"span.gram.submit.self_ms_per_op",    // by the grid child
		"span.job.run.self_ms_per_op",
		"trace.spans_per_op", "trace.coverage_pct",
		"proc.grid.cpu_ms_per_op", "core.submit_rpcs_per_op", "gateway.sticky_ratio",
		"soap.encode.ns_per_op", "core.invoke_hot.allocs_per_op",
	} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if v := res.Metrics["fail_ratio"].Value; v != 0 {
		t.Errorf("fail_ratio = %v, want 0", v)
	}
}

func TestCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bm := write("BENCHMARK.json", manifest{
		Workloads: []manifestEntry{{Name: "w"}},
		EndToEnd: []metricDef{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	})
	set := func(label string, setup, ops []float64) resultSet {
		s := resultSet{Label: label}
		for i := range ops {
			s.Runs = append(s.Runs, &runResult{Workload: "w", Seed: int64(i), Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"setup_s": {Value: setup[i]}, "ops_per_s": {Value: ops[i]}}})
		}
		return s
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisySetup := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	slower := make([]float64, len(steady))
	wild := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 0.85
		wild[i] = v * (1 + 0.3*float64(i%2))
	}
	file := filepath.Join(dir, "r.json")
	results := resultFile{Sets: []resultSet{
		set("a", noisySetup, steady), set("b", noisySetup, steady),
		set("slow", noisySetup, slower), set("wild", noisySetup, wild),
	}}
	if err := results.write(file); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		b    string
		want string // "" passes
	}{
		{"b", ""}, // setup_s's spread is wide, but it is not judged
		{"slow", "regression"},
		{"wild", "spread exceeds bound"},
	} {
		var out bytes.Buffer
		err := runCheck(bm, file+":a", file+":"+tc.b, &out)
		if (err == nil) != (tc.want == "") || !strings.Contains(out.String(), tc.want) {
			t.Errorf("check a against %s: err=%v, want verdict %q in:\n%s", tc.b, err, tc.want, out.String())
		}
	}
	if err := runCheck(bm, file+":a", file+":nosuch", &bytes.Buffer{}); err == nil {
		t.Error("check against a set that does not exist passed")
	}
}
