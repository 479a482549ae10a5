// Package experiments regenerates the paper's evaluation (Section VIII):
// Figure 6 (Web-service execution with a small file), Figure 7 (the same
// with a ~5 MB file), Figure 8 (upload and Web-service generation), the
// scalability discussion of §VIII-D, and the many-small-jobs observation
// of §VIII-B. Each experiment boots the full stack — simulated TeraGrid,
// appliance, portal, SOAP container — over loopback TCP with a
// time-dilated clock, shapes the appliance's grid path to the paper's
// WAN (~85 KB/s) and its user path to the paper's LAN (1000 Mbit/s), and
// samples the appliance host's CPU, disk, and network at 3-second
// virtual intervals exactly as the paper did.
//
// Every study is written in one vocabulary: a rig (newRig, newFleetRig),
// the two doors into it (service: the generated SOAP service the figures
// measure; door: the portal's JSON API), rig.measure, fanOut, since, and
// a variantTable of the knobs under comparison. Studies is the index of
// what exists, which cmd/experiments runs.
package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// sampleInterval is the paper's sampling bucket, and bucketS the same in
// seconds for the per-bucket arithmetic.
const (
	sampleInterval = 3 * time.Second
	bucketS        = float64(sampleInterval / time.Second)
)

// Options tunes an experiment run.
type Options struct {
	// Scale is the time dilation factor; default 200 (one real second
	// covers 200 virtual seconds).
	Scale float64
	// Appliance is the configuration under test: the paper profile (the
	// zero value) plus whatever knobs the experiment flips. newRig
	// completes it with the rig's own wiring — Endpoints, Clock, Probe,
	// Cost (metrics.DefaultCost unless it brings its own), the shaped
	// grid and user links, Trace — and a one-hour InvocationTimeout.
	Appliance appliance.Config
	// Tracing turns on the distributed tracer: one collector shared by
	// the grid environment and the appliance, so each invocation yields
	// a single cross-service span tree (read back via door.trace).
	Tracing bool
}

// clock is the dilated clock a rig runs on.
func (o Options) clock() *vtime.Scaled { return vtime.NewScaled(orDefault(o.Scale, 200)) }

// orDefault is v, or def when v is not positive: how every study reads
// a size its caller left at zero.
func orDefault[T int | float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// capScale holds the dilation at 40x for the studies that make many
// round-trips or fire wide bursts: at the default 200x their real
// scheduling cost inflates into whole virtual seconds and biases the
// comparison.
func (o *Options) capScale() {
	if o.Scale <= 0 || o.Scale > 40 {
		o.Scale = 40
	}
}

// Result is one experiment's outcome.
type Result struct {
	// Name identifies the experiment ("fig6", ...).
	Name string
	// Title is the paper caption it reproduces.
	Title string
	// Series is the appliance host's 3-second-bucket resource series.
	Series []metrics.Sample
	// Summary holds derived scalars (upload seconds, totals, peaks).
	Summary map[string]float64
	// Notes explain what to look for, mirroring the paper's commentary.
	Notes []string
}

// CSV renders the series.
func (r *Result) CSV() string { return metrics.CSV(r.Series) }

// Render produces the terminal "figure": one ASCII chart per plotted
// quantity, as the paper plots CPU, network, and disk I/O.
func (r *Result) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.Name, r.Title)
	out += metrics.Chart("CPU utilisation", "%", r.Series, func(s metrics.Sample) float64 { return s.CPUPct })
	out += metrics.Chart("Network in", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.NetInBytes })
	out += metrics.Chart("Network out", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.NetOutBytes })
	out += metrics.Chart("Disk write", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.DiskWriteBytes })
	out += metrics.Chart("Disk read", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.DiskReadBytes })
	out += renderNotes(r.Notes)
	keys := make([]string, 0, len(r.Summary))
	for k := range r.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out += fmt.Sprintf("summary: %s = %.4g\n", k, r.Summary[k])
	}
	return out
}

// renderNotes is the tail every result's Render shares.
func renderNotes(notes []string) string {
	out := ""
	for _, n := range notes {
		out += "note: " + n + "\n"
	}
	return out
}

// bootGrid starts the simulated grid every rig runs against: a compact
// two-site grid (the studies measure the appliance tier, not grid
// queueing) with the user alice. profile shapes what the grid servers
// send back; nil leaves it unshaped.
func bootGrid(clk vtime.Clock, profile *netsim.Profile, col *trace.Collector) (*gridenv.Env, error) {
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
		// In name order: the load broker's idle-grid tie-break favours the
		// first, which the placement study steers around.
		Sites: []gridsim.SiteConfig{
			{Name: "ncsa-abe", Nodes: 8, CoresPerNode: 8},
			{Name: "sdsc-ds", Nodes: 8, CoresPerNode: 8},
		},
		Profile: profile,
		Trace:   col,
	})
	if err != nil {
		return nil, err
	}
	// Time dilation shrinks the default event-stream heartbeat to a few
	// real milliseconds; one virtual minute keeps the client's liveness
	// budget well clear of real scheduler jitter.
	env.Gatekeeper.SetHeartbeatInterval(time.Minute)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

// aliceAuth is how an appliance reaches the grid on alice's behalf.
var aliceAuth = core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"}

// wanUplink returns an HTTP client and a MyProxy dial function that
// cross the shaped WAN, accounting bytes to probe when it is non-nil.
func wanUplink(wan *netsim.Profile, probe *metrics.Probe) (*http.Client, func(network, addr string) (net.Conn, error)) {
	dialer := &netsim.Dialer{Profile: wan, Probe: probe}
	return &http.Client{Transport: &http.Transport{DialContext: dialer.DialContext}},
		func(network, addr string) (net.Conn, error) {
			return dialer.DialContext(context.Background(), network, addr)
		}
}

// rig is the booted single-appliance measurement stack.
type rig struct {
	clock *vtime.Scaled
	rec   *metrics.Recorder
	probe *metrics.Probe
	env   *gridenv.Env
	app   *appliance.Appliance
	wan   *netsim.Profile
	// userHTTP reaches the appliance over the shaped LAN.
	userHTTP *http.Client
}

// newRig boots the grid and appliance with the paper's link profiles.
func newRig(opts Options) (*rig, error) {
	clk := opts.clock()
	rec := metrics.NewRecorder(clk, sampleInterval)
	probe := metrics.NewProbe(rec)
	wan := netsim.WAN(clk)
	lan := netsim.LAN(clk)
	var col *trace.Collector
	if opts.Tracing {
		col = trace.NewCollector(0, 0)
	}
	// Grid servers answer the appliance across the WAN.
	env, err := bootGrid(clk, wan, col)
	if err != nil {
		return nil, err
	}

	cfg := opts.Appliance
	cfg.Endpoints = env.Endpoints()
	cfg.Clock = clk
	cfg.Probe = probe
	if cfg.Cost == (metrics.Cost{}) {
		cfg.Cost = metrics.DefaultCost()
	}
	cfg.GridHTTP, cfg.MyProxyDial = wanUplink(wan, probe)
	cfg.UserProfile = lan
	cfg.InvocationTimeout = time.Hour
	cfg.Trace = col
	img, err := appliance.BuildImage(cfg)
	if err != nil {
		env.Close()
		return nil, err
	}
	app, err := img.Boot(nil)
	if err != nil {
		env.Close()
		return nil, err
	}
	app.OnServe.RegisterUser("alice", aliceAuth)

	userDialer := &netsim.Dialer{Profile: lan}
	userHTTP := &http.Client{Transport: &http.Transport{DialContext: userDialer.DialContext}}
	return &rig{clock: clk, rec: rec, probe: probe, env: env, app: app, wan: wan, userHTTP: userHTTP}, nil
}

func (r *rig) close() {
	r.app.Shutdown()
	r.env.Close()
}

// measurement is what rig.measure observed while its function ran.
type measurement struct {
	// seconds is the elapsed virtual time.
	seconds float64
	// series is the appliance host's resource series over the run, and
	// sum its seriesSummary.
	series []metrics.Sample
	sum    map[string]float64
}

// measure resets the recorder, runs fn and reports the virtual time it
// took and what the appliance host did meanwhile.
func (r *rig) measure(fn func() error) (measurement, error) {
	r.rec.Reset()
	start := r.clock.Now()
	if err := fn(); err != nil {
		return measurement{}, err
	}
	m := measurement{seconds: r.clock.Now().Sub(start).Seconds(), series: r.rec.Series()}
	m.sum = seriesSummary(m.series)
	return m, nil
}

// fanOut runs fn(0) … fn(n-1) on n goroutines, at most width of them at
// once (width <= 0: all n), waits for every one and returns the first
// error any of them reported.
func fanOut(n, width int, fn func(i int) error) error {
	if width <= 0 || width > n {
		width = n
	}
	sem := make(chan struct{}, width)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// since snapshots a counter block (a struct of uint64 counters, such as
// core.SubmitStats) and returns a function reporting how far each counter
// has grown since.
func since[T any](read func() T) func() T {
	before := reflect.ValueOf(read())
	return func() T {
		after := read()
		v := reflect.ValueOf(&after).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(v.Field(i).Uint() - before.Field(i).Uint())
		}
		return after
	}
}

// seriesSummary derives the scalar metrics shared by the figures.
func seriesSummary(series []metrics.Sample) map[string]float64 {
	sum := map[string]float64{}
	var peakCPU, peakNetIn, peakNetOut, peakDiskW float64
	for _, s := range series {
		sum["net_in_total_b"] += s.NetInBytes
		sum["net_out_total_b"] += s.NetOutBytes
		sum["disk_write_total_b"] += s.DiskWriteBytes
		sum["disk_read_total_b"] += s.DiskReadBytes
		sum["cpu_total_s"] += s.CPUPct / 100 * bucketS
		peakCPU = max(peakCPU, s.CPUPct)
		peakNetIn = max(peakNetIn, s.NetInBytes)
		peakNetOut = max(peakNetOut, s.NetOutBytes)
		peakDiskW = max(peakDiskW, s.DiskWriteBytes)
	}
	sum["cpu_peak_pct"] = peakCPU
	sum["net_in_peak_b"] = peakNetIn
	sum["net_out_peak_b"] = peakNetOut
	sum["disk_write_peak_b"] = peakDiskW
	if n := len(series); n > 0 {
		sum["duration_s"] = series[n-1].Start.Seconds() + bucketS
	}
	return sum
}

// countPeaks counts local maxima above thresh — used to verify the
// "periodic disk write peaks" and "two disk write peaks" claims.
func countPeaks(series []metrics.Sample, pick func(metrics.Sample) float64, thresh float64) int {
	n, inPeak := 0, false
	for _, s := range series {
		above := pick(s) >= thresh
		if above && !inPeak {
			n++
		}
		inPeak = above
	}
	return n
}
