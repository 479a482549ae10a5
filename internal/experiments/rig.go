// Package experiments regenerates the paper's evaluation (Section VIII):
// Figure 6 (Web-service execution with a small file), Figure 7 (the same
// with a ~5 MB file), Figure 8 (upload and Web-service generation), the
// scalability discussion of §VIII-D, and the many-small-jobs observation
// of §VIII-B. Each experiment boots the full stack — simulated TeraGrid,
// appliance, portal, SOAP container — over in-process pipes (a
// netsim.Net) in a testing/synctest bubble (package bubble), shapes the
// appliance's grid path to the paper's WAN (~85 KB/s) and its user path
// to the paper's LAN (1000 Mbit/s), and samples the appliance host's
// CPU, disk, and network at 3-second virtual intervals exactly as the
// paper did. Virtual time moves only by modelled cost — link pacing, the
// metrics cost model, job runtimes, poll intervals — so a figure reads
// the same on any host, with or without the race detector. The fleet rig
// runs in a bubble over pipes too.
//
// Every study is written in one vocabulary: a rig (withRig, withFleetRig),
// the two doors into it (service: the generated SOAP service the figures
// measure; door: the portal's JSON API), rig.measure, fanOut, since, and
// the configurations under comparison — the knobs study's (Knobs) for
// appliance.Production's knobs, a variantTable for a sweep. Studies is the
// index of what exists, which cmd/experiments runs.
package experiments

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/appliance"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// sampleInterval is the paper's sampling bucket, and bucketS the same in
// seconds for the per-bucket arithmetic.
const (
	sampleInterval = 3 * time.Second
	bucketS        = float64(sampleInterval / time.Second)
)

// Options tunes an experiment run.
type Options struct {
	// Appliance is the configuration under test: the paper profile (the
	// zero value) plus whatever knobs the experiment flips. newRig
	// completes it with the rig's own wiring — Endpoints, Probe,
	// Cost (metrics.DefaultCost unless it brings its own), the shaped
	// grid and user links, Trace — and a one-hour InvocationTimeout.
	Appliance appliance.Config
	// Tracing turns on the distributed tracer: one collector shared by
	// the grid environment and the appliance, so each invocation yields
	// a single cross-service span tree (read back via door.trace).
	Tracing bool
}

// orDefault is v, or def when v is not positive: how every study reads
// a size its caller left at zero.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
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
// queueing) with the user alice, on pipes (nil: loopback TCP). profile
// shapes what the grid servers send back; nil leaves it unshaped.
func bootGrid(pipes *netsim.Net, profile *netsim.Profile, col *trace.Collector) (*gridenv.Env, error) {
	env, err := gridenv.Start(gridenv.Options{
		// In name order: the load broker's idle-grid tie-break favours the
		// first, which the placement study steers around.
		Sites: []gridsim.SiteConfig{
			{Name: "ncsa-abe", Nodes: 8, CoresPerNode: 8},
			{Name: "sdsc-ds", Nodes: 8, CoresPerNode: 8},
		},
		Profile: profile,
		Trace:   col,
		Net:     pipes,
	})
	if err != nil {
		return nil, err
	}
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

// aliceAuth is how an appliance reaches the grid on alice's behalf.
var aliceAuth = core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"}

// rig is the booted single-appliance measurement stack.
type rig struct {
	rec   *metrics.Recorder
	probe *metrics.Probe
	env   *gridenv.Env
	app   *appliance.Appliance
	// uplink dials across the shaped WAN, as the appliance does.
	uplink *netsim.Dialer
	// userHTTP reaches the appliance over the shaped LAN.
	userHTTP *http.Client
}

// inBubble boots a rig in a bubble of its own, runs fn on it and closes
// it. It returns fn's error once every goroutine the rig started has
// exited.
func inBubble[R interface{ close() }](boot func() (R, error), fn func(R) error) (err error) {
	bubble.Run(func() {
		var r R
		if r, err = boot(); err != nil {
			return
		}
		defer r.close()
		err = fn(r)
	})
	return err
}

// withRig runs fn on the grid and appliance, with the paper's link
// profiles over one in-process network, in a bubble of its own.
func withRig(opts Options, fn func(*rig) error) error {
	return inBubble(func() (*rig, error) { return newRig(opts) }, fn)
}

// newRig boots the rig withRig runs: call it inside a bubble.
func newRig(opts Options) (*rig, error) {
	pipes := netsim.NewNet()
	rec := metrics.NewRecorder(sampleInterval)
	probe := metrics.NewProbe(rec)
	wan := netsim.WAN()
	lan := netsim.LAN()
	var col *trace.Collector
	if opts.Tracing {
		col = trace.NewCollector(0, 0)
	}
	// Grid servers answer the appliance across the WAN.
	env, err := bootGrid(pipes, wan, col)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*rig, error) {
		env.Close()
		return nil, err
	}

	cfg := opts.Appliance
	cfg.Endpoints = env.Endpoints()
	cfg.Probe = probe
	if cfg.Cost == (metrics.Cost{}) {
		cfg.Cost = metrics.DefaultCost()
	}
	uplink := &netsim.Dialer{Profile: wan, Probe: probe, Net: pipes}
	cfg.GridDial = uplink.DialContext
	cfg.InvocationTimeout = time.Hour
	cfg.Trace = col
	img, err := appliance.BuildImage(cfg)
	if err != nil {
		return fail(err)
	}
	app, err := img.Boot(netsim.NewListener(pipes.Listen(), lan, probe))
	if err != nil {
		return fail(err)
	}
	app.OnServe.RegisterUser("alice", aliceAuth)

	userHTTP := &http.Client{Transport: hop.NewTransport((&netsim.Dialer{Profile: lan, Net: pipes}).DialContext)}
	return &rig{rec: rec, probe: probe, env: env, app: app, uplink: uplink, userHTTP: userHTTP}, nil
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
	// gridRPCs is how many requests the appliance sent the grid.
	gridRPCs uint64
}

// measure resets the recorder, runs fn and reports the virtual time it
// took and what the appliance host did meanwhile.
func (r *rig) measure(fn func() error) (measurement, error) {
	requests := r.gridRPCs()
	r.rec.Reset()
	start := time.Now()
	if err := fn(); err != nil {
		return measurement{}, err
	}
	// A reply's bytes are accounted before the caller can read them, but
	// its sender, or a collector it released, may go on to account more
	// at the same instant: let every goroutine of the bubble finish what
	// that instant holds before reading.
	bubble.Wait()
	m := measurement{seconds: time.Since(start).Seconds(), series: r.rec.Series(), gridRPCs: requests()}
	m.sum = seriesSummary(m.series)
	return m, nil
}

// gridRPCs returns a function counting the requests the appliance has
// sent the grid since, from the counters core keeps: MyProxy logons,
// statistics fetches, stagings, submits, status polls, output fetches,
// event streams and possession probes. A staging is one PUT, or on the
// chunk protocol a probe, the chunks shipped and a commit.
func (r *rig) gridRPCs() func() uint64 {
	o := r.app.OnServe
	logons := r.app.Agent.Logons()
	submit, stage, collect := since(o.SubmitStats), since(o.StageStats), since(o.CollectorStats)
	events, place := since(o.EventStats), since(o.PlacementStats)
	return func() uint64 {
		s, st, c := submit(), stage(), collect()
		return r.app.Agent.Logons() - logons + s.StatsRPCs + s.Uploads + st.ChunkedUploads + st.ChunksShipped +
			s.SubmitRPCs + c.StatusRPCs + c.OutputFetches + events().StreamsOpened + place().ProbesSent
	}
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
