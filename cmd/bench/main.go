// Command bench is the repository's real-clock benchmark: four
// closed-loop workloads against the appliance (or the fleet gateway)
// with the grid in a separate process, a traced rerun for per-span
// self times, and thirty layer rungs. bench/README.md defines every
// metric and says why each workload exists.
//
//	bench --workload hot_small --seed 1 --seconds 15 --trace 0   one run, end-to-end metrics
//	bench --workload hot_small --seed 1 --seconds 15 --trace 1   one run, per-layer metrics
//	bench [-runs 10] [-seed 1] [-out f.json -label a]            every workload, both ways
//	bench -rungs                                                 the layer rungs alone
//	bench -check A.json B.json                                   compare two result files
//
// The binary re-executes itself as the grid (-role grid) and as the
// system under test (-role sut), so each side's CPU and allocations are
// accounted for per process.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		role     = flag.String("role", "", "internal: run as a child (grid or sut)")
		wl       = flag.String("workload", "", "run this workload once; empty runs all of them")
		seed     = flag.Int64("seed", 1, "seed for service choice and payload bytes")
		seconds  = flag.Float64("seconds", windowSeconds, "timed window in seconds")
		window   = flag.Float64("window", 0, "alias of -seconds")
		traceOn  = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		runs     = flag.Int("runs", 1, "with no -workload: untraced runs per workload, on seed, seed+1, ...")
		out      = flag.String("out", "", "with no -workload: add the runs to this result file as one set")
		label    = flag.String("label", "", "name of the set written to -out")
		rungs    = flag.Bool("rungs", false, "run the layer rungs alone")
		check    = flag.Bool("check", false, "compare two result files: -check A.json[:set] B.json[:set]")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()

	if *role != "" {
		if err := runChild(*role, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	o := defaultRunOpts()
	o.seed = *seed
	if *window > 0 {
		*seconds = *window
	}
	o.window = time.Duration(*seconds * float64(time.Second))

	var err error
	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(buildManifest())
	case *check:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-check wants two result files")
			break
		}
		err = runCheck("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
	case *rungs:
		var values map[string]float64
		values, err = runRungs(o.tmp, o.rungBenchtime)
		printRungs(values)
	case *wl != "":
		o.workload, o.traced = *wl, *traceOn == 1
		err = runOnce(o)
	default:
		err = runAll(o, *runs, *out, *label)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOnce is the driver's contract: one workload, one seed, and as the
// last line of standard output one JSON object with exactly the keys
// correct, attempted, failed and metrics.
func runOnce(o runOpts) error {
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	printResult(res)
	// With --trace 0 the line carries every end-to-end metric, with
	// --trace 1 every per-layer one, and nothing else.
	defs := endToEnd
	if o.traced {
		defs = perLayer()
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run is not valid: %s", res.Problem)
	}
	return nil
}

// resultFile is what -out writes and -check reads: sets of runs. A
// later change adds its own BENCH_<pr>.json and checks it against this
// one's.
type resultFile struct {
	Meta resultMeta  `json:"meta"`
	Sets []resultSet `json:"sets"`
}

type resultMeta struct {
	Go       string  `json:"go"`
	NumCPU   int     `json:"num_cpu"`
	WindowS  float64 `json:"window_s"`
	WarmUpS  float64 `json:"warm_up_s"`
	Recorded string  `json:"recorded"`
}

type resultSet struct {
	Label string       `json:"label"`
	Runs  []*runResult `json:"runs"`
}

// write stores the file as JSON with one run per line, so a result file
// can be read and diffed by eye.
func (f *resultFile) write(path string) error {
	var b bytes.Buffer
	meta, err := json.Marshal(f.Meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "{\"meta\": %s,\n \"sets\": [", meta)
	for i, set := range f.Sets {
		if i > 0 {
			b.WriteString(",")
		}
		label, err := json.Marshal(set.Label)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "\n  {\"label\": %s, \"runs\": [", label)
		for j, run := range set.Runs {
			line, err := json.Marshal(run)
			if err != nil {
				return err
			}
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n   %s", line)
		}
		b.WriteString("\n  ]}")
	}
	b.WriteString("\n ]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// runAll runs every workload: runs untraced runs on consecutive seeds,
// then one traced run (which includes the rungs), printing every
// metric. With out set, the runs are appended to that file as one set.
func runAll(o runOpts, runs int, out, label string) error {
	set := resultSet{Label: label}
	var invalid error
	for _, w := range workloads {
		o.workload = w.name
		for i := 0; i <= runs; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			if ro.traced = i == runs; ro.traced {
				ro.seed = o.seed
			}
			res, err := runWorkload(ro)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, ro.seed, err)
			}
			printResult(res)
			if !res.Correct && invalid == nil {
				invalid = fmt.Errorf("%s seed %d trace %d is not valid: %s", w.name, ro.seed, res.Trace, res.Problem)
			}
			set.Runs = append(set.Runs, res)
		}
	}
	if out != "" {
		var file resultFile
		if b, err := os.ReadFile(out); err == nil {
			if err := json.Unmarshal(b, &file); err != nil {
				return fmt.Errorf("%s: %w", out, err)
			}
		}
		file.Meta = resultMeta{
			Go: runtime.Version(), NumCPU: runtime.NumCPU(),
			WindowS: o.window.Seconds(), WarmUpS: o.warm.Seconds(),
			Recorded: time.Now().UTC().Format(time.RFC3339),
		}
		file.Sets = append(file.Sets, set)
		if err := file.write(out); err != nil {
			return err
		}
	}
	return invalid
}

// printResult lists a run's metrics by name, with units.
func printResult(res *runResult) {
	fmt.Printf("== %s seed=%d trace=%d correct=%t attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed)
	if res.Problem != "" {
		fmt.Printf("   problem: %s\n", res.Problem)
	}
	for _, d := range allMetrics() {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("   %-42s %14.4f %s\n", d.Name, v.Value, d.Unit)
		}
	}
}

func printRungs(values map[string]float64) {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-42s %14.1f\n", name, values[name])
	}
}
