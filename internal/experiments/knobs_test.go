package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
)

// TestKnobConfigs pins the study's configurations: the knobs are the
// fields where Production differs from Paper, and the configurations are
// Paper, Production and Paper+K, Production−K for each knob, each one
// valid and named after the knobs it set.
func TestKnobConfigs(t *testing.T) {
	var differ []string
	paper, prod := reflect.ValueOf(appliance.Paper()), reflect.ValueOf(appliance.Production(""))
	for i := 0; i < prod.NumField(); i++ {
		if !reflect.DeepEqual(paper.Field(i).Interface(), prod.Field(i).Interface()) {
			differ = append(differ, prod.Type().Field(i).Name)
		}
	}
	if !slices.Equal(knobs, differ) {
		t.Fatalf("knobs %v, but Production differs from Paper in %v", knobs, differ)
	}
	configs := knobConfigs()
	if len(configs) != 2+2*len(knobs) {
		t.Fatalf("%d configurations, want %d", len(configs), 2+2*len(knobs))
	}
	names := map[string]bool{}
	for _, c := range configs {
		if names[c.name] {
			t.Errorf("%s appears twice", c.name)
		}
		names[c.name] = true
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		// The name lists exactly the knobs that differ from its profile.
		profile, sep := configs[0].cfg, "+"
		if strings.HasPrefix(c.name, "production") {
			profile, sep = configs[1].cfg, "-"
		}
		var changed []string
		a, b := reflect.ValueOf(c.cfg), reflect.ValueOf(profile)
		for i := 0; i < a.NumField(); i++ {
			if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
				changed = append(changed, a.Type().Field(i).Name)
			}
		}
		_, set, _ := strings.Cut(c.name, sep)
		named := strings.FieldsFunc(set, func(r rune) bool { return string(r) == sep })
		slices.Sort(named)
		slices.Sort(changed)
		if !slices.Equal(named, changed) {
			t.Errorf("%s changes %v", c.name, changed)
		}
	}
}

// TestKnobs regenerates results/knobs.json, compares it byte for byte
// with the checked-in file, as cmd/experiments writes it, and reads each
// knob's verdict off it. Under -short only Paper and Production run, and
// their rows are compared with the file's.
func TestKnobs(t *testing.T) {
	configs := knobConfigs()
	run := Knobs
	if testing.Short() {
		configs = configs[:2]
		run = func(o Options) (*AblationResult, error) { return runKnobs(o, configs) }
	}
	res, err := run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), len(configs)*len(knobScenarios)*5; got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	blob, checkedIn := checkedInKnobs(t)
	want := checkedIn.Rows
	if testing.Short() {
		want = nil
		for _, row := range checkedIn.Rows {
			if row.Variant == "paper" || row.Variant == "production" {
				want = append(want, row)
			}
		}
	}
	if !reflect.DeepEqual(res.Rows, want) {
		for i := range min(len(res.Rows), len(want)) {
			if res.Rows[i] != want[i] {
				t.Errorf("row %d: %+v, results/knobs.json has %+v", i, res.Rows[i], want[i])
			}
		}
		t.Fatalf("%d rows, results/knobs.json has %d", len(res.Rows), len(want))
	}
	if testing.Short() {
		return
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("regenerated knobs study differs from results/knobs.json (its notes?)")
	}
	knobVerdicts(t, ablationMap(res))
}

// checkedInKnobs reads results/knobs.json, as bytes and as a result.
func checkedInKnobs(t *testing.T) ([]byte, AblationResult) {
	blob, err := os.ReadFile(filepath.Join(resultsDir, "knobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res AblationResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("results/knobs.json: %v", err)
	}
	return blob, res
}

// knobVerdicts judges each knob, one subtest each, on the scenario it
// was built for: Paper with it beats Paper without it, and Production
// without it is worse than Production. DataAwarePlacement wins its
// scenario from Paper but has no row where Production is worse without
// it: that is a finding, reported, not a bound relaxed to pass.
func knobVerdicts(t *testing.T, vals map[string]float64) {
	for _, v := range []struct {
		knob, scenario, metric string
		// base and with are the Paper-side rows; without is Production−K.
		base, with, without string
	}{
		{"StagingCache", "hot8", "net_out_b", "paper", "paper+StagingCache", "production-StagingCache"},
		{"DirectDBWrite", "fig8", "disk_write_b", "paper", "paper+DirectDBWrite", "production-DirectDBWrite"},
		{"SessionCache", "hot8", "duration_s", "paper", "paper+SessionCache", "production-SessionCache"},
		{"StatsTTL", "cold16", "grid_rpcs", "paper", "paper+StatsTTL", "production-StatsTTL"},
		{"PushEvents", "hot8", "duration_s", "paper", "paper+PushEvents", "production-PushEvents"},
		{"CoalesceStaging", "cold16", "net_out_b", "paper", "paper+CoalesceStaging", "production-CoalesceStaging"},
		{"ChunkedStaging", "republish", "net_out_b", "paper", "paper+ChunkedStaging", "production-ChunkedStaging-WireCompression-DataAwarePlacement"},
		{"WireCompression", "fig7", "net_out_b", "paper+ChunkedStaging", "paper+ChunkedStaging+WireCompression", "production-WireCompression"},
		{"DataAwarePlacement", "placement", "duration_s", "paper+ChunkedStaging", "paper+ChunkedStaging+DataAwarePlacement", ""},
	} {
		t.Run(v.knob, func(t *testing.T) {
			at := func(config string) float64 {
				key := v.scenario + "/" + config + "/" + v.metric
				x, ok := vals[key]
				if !ok {
					t.Fatalf("no row %s", key)
				}
				return x
			}
			if base, with := at(v.base), at(v.with); with >= base {
				t.Errorf("%s %s: %s %v, %s %v: the knob wins nothing from the paper side", v.scenario, v.metric, v.with, with, v.base, base)
			}
			if v.without == "" {
				return
			}
			if prod, without := at("production"), at(v.without); without <= prod {
				t.Errorf("%s %s: %s %v, production %v: production loses nothing without the knob", v.scenario, v.metric, v.without, without, prod)
			}
		})
	}
}

// TestPushRowRepeats runs the knobs study's fig6 paper+PushEvents row
// many times side by side, on more threads than cores so that the
// scheduler varies its order, and wants every run to read what
// results/knobs.json holds. The row once read 12 bytes less in and
// 0.14 ms shorter, about once in a thousand runs: a job's output
// announcement raced its next write at one instant, and the event
// stream's frame carried whichever the gatekeeper saw.
func TestPushRowRepeats(t *testing.T) {
	runs := 1500
	if testing.Short() {
		runs = 200
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	configs := knobConfigs()
	config := configs[slices.IndexFunc(configs, func(c knobConfig) bool { return c.name == "paper+PushEvents" })]
	ms := make([]measurement, runs)
	err := fanOut(runs, runtime.GOMAXPROCS(0), func(i int) error {
		return withRig(Options{Appliance: config.cfg}, func(r *rig) (err error) { ms[i], err = fig6(r); return err })
	})
	if err != nil {
		t.Fatal(err)
	}
	_, checkedIn := checkedInKnobs(t)
	want := ablationMap(&checkedIn)
	at := func(metric string) float64 { return want["fig6/"+config.name+"/"+metric] }
	differ := 0
	for _, m := range ms {
		if m.seconds != at("duration_s") || m.sum["net_in_total_b"] != at("net_in_b") {
			if differ++; differ == 1 {
				t.Errorf("a run read duration_s %v, net_in_b %v; results/knobs.json has %v, %v",
					m.seconds, m.sum["net_in_total_b"], at("duration_s"), at("net_in_b"))
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d runs differ", differ, runs)
	}
}

// TestDetectionFollowsJobEnd: an invocation ends after its grid job, by
// at most one poll interval under the paper's poller and by delivery
// latency under Production's pushed events.
func TestDetectionFollowsJobEnd(t *testing.T) {
	for _, c := range knobConfigs()[:2] {
		err := withRig(Options{Appliance: c.cfg}, func(r *rig) error {
			svc, err := r.deploy("detect.gsh", oneSecondJob)
			if err != nil {
				return err
			}
			ticket, err := svc.start(nil)
			if err == nil {
				_, err = svc.wait(ticket)
			}
			if err != nil {
				return err
			}
			inv, err := r.app.OnServe.Invocation(ticket)
			if err != nil {
				return err
			}
			job, err := r.env.Grid.Job(inv.JobID)
			if err != nil {
				return err
			}
			_, _, ended := job.Times()
			limit := core.DefaultPollInterval
			if c.cfg.PushEvents {
				limit = time.Second
			}
			if gap := inv.EndedAt().Sub(ended); ended.IsZero() || gap < 0 || gap > limit {
				t.Errorf("%s: the invocation ended %v after its job (job end %v), want within [0, %v]", c.name, gap, ended, limit)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
