// Command experiments regenerates the paper's evaluation: Figures 6-8,
// the §VIII-D scalability sweep, the §VIII-B many-small-jobs check, and
// the design-choice ablations — every entry of experiments.Studies (the
// index, with what each measures, is in EXPERIMENTS.md). Each study
// prints an ASCII rendering and writes its artifact, when it has one,
// under -out.
//
//	experiments -fig 7            # one figure -> results/fig7.csv
//	experiments -all              # everything
//	experiments -scalability -scale 500
//	experiments -hotpath          # one ablation -> results/hotpath.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// figureNumber is N for a study that -fig N selects (fig6: 6), and 0 for
// one selected by a flag of its own name.
func figureNumber(s experiments.Study) int {
	n := 0
	fmt.Sscanf(s.Name, "fig%d", &n)
	return n
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var p experiments.Params
	fig := fs.Int("fig", 0, "regenerate one figure (6, 7 or 8)")
	all := fs.Bool("all", false, "run every experiment")
	fs.Float64Var(&p.Options.Scale, "scale", 200, "virtual-time dilation factor")
	outDir := fs.String("out", "results", "directory for CSV output")
	fs.IntVar(&p.Jobs, "jobs", 50, "job count for -smalljobs")
	fs.IntVar(&p.ReplayRecords, "replay-records", 1_000_000, "record count for the -blobdb cold-boot replay study")
	fs.IntVar(&p.TenancyBurst, "tenancy-burst", 1000, "hog burst size for -tenancy")
	pick := map[string]*bool{}
	use := []string{"-fig N"}
	for _, s := range experiments.Studies {
		if figureNumber(s) == 0 {
			pick[s.Name] = fs.Bool(s.Name, false, s.Help)
			use = append(use, "-"+s.Name)
		}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	want := func(s experiments.Study) bool {
		if n := figureNumber(s); n != 0 {
			return n == *fig
		}
		return *pick[s.Name]
	}
	ran := false
	for _, s := range experiments.Studies {
		if !*all && !want(s) {
			continue
		}
		ran = true
		res, err := s.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Fprint(stdout, res.Render())
		if s.Artifact != "" {
			path := filepath.Join(*outDir, s.Artifact)
			if err := writeArtifact(path, res); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		fmt.Fprintln(stdout)
	}
	if !ran {
		return fmt.Errorf("nothing selected; use %s or -all", strings.Join(use, ", "))
	}
	return nil
}

// writeArtifact writes a result as its file's extension says: the CSV
// the result renders, or the result itself as indented JSON.
func writeArtifact(path string, res any) error {
	if filepath.Ext(path) == ".csv" {
		// A study whose artifact is a .csv returns a result with CSV().
		return os.WriteFile(path, []byte(res.(interface{ CSV() string }).CSV()), 0o644)
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
