package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/trace"
)

// runOpts says how to run one workload once.
type runOpts struct {
	workload string
	seed     int64
	window   time.Duration // the timed window
	warm     time.Duration // fixed warm-up before it
	traced   bool          // report per-layer metrics instead of end-to-end ones
	// setups is how many times the stack is set up; setup_s is the
	// median plus the warm-up, and the load runs on the last one.
	setups int
	// tracedOps bounds the traced load.
	tracedOps int
	// rungBenchtime is testing's -benchtime for each layer rung.
	rungBenchtime string
	// tmp is where on-disk databases live for the length of the run.
	tmp string
}

func defaultRunOpts() runOpts {
	return runOpts{
		seed:      1,
		window:    windowSeconds * time.Second,
		warm:      3 * time.Second,
		setups:    5,
		tracedOps: 2000,
		// Thirty rungs must fit in a traced run beside its two loads.
		rungBenchtime: "60ms",
		tmp:           ".bench_build/tmp",
	}
}

// windowSlices is how many slices an untraced window is cut into.
const windowSlices = 6

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. A run is correct when every
// op's output was its own n and the stack's own counters agree that
// nothing was lost, refused or rerouted. Metrics holds everything the
// run measured: an untraced run measures the end-to-end metrics and
// the per-layer ones that come from its window; a traced run measures
// every per-layer metric.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Problem says why a run is not correct.
	Problem string `json:"problem,omitempty"`
}

// session is a stack that is set up: booted, published, primed.
type session struct {
	r       *rig
	rt      *http.Transport
	callers []*caller
	okOps   int // successful ops so far; must equal the DONE invocations
	dbDir   string
}

// setUp boots the three-process stack for w, publishes its services and
// runs one op against each, so every lazy path has run once. This is
// what setup_s times.
func setUp(w *workload, o runOpts, traced bool) (_ *session, err error) {
	s := &session{}
	defer func() {
		if err != nil {
			s.tearDown()
		}
	}()
	if w.diskDB {
		if err := os.MkdirAll(o.tmp, 0o755); err != nil {
			return nil, err
		}
		if s.dbDir, err = os.MkdirTemp(o.tmp, "db-"); err != nil {
			return nil, err
		}
	}
	// The load is sized to the machine: one caller per CPU, each keeping
	// its own connection to the front door alive.
	callers := runtime.NumCPU()
	s.rt = &http.Transport{MaxIdleConnsPerHost: callers + 2}
	if s.r, err = bootRig(w.sutConfig(s.dbDir, traced), &http.Client{Transport: s.rt}); err != nil {
		return nil, err
	}
	for i := 0; i < callers; i++ {
		s.callers = append(s.callers, newCaller(i, w, s.r.base, o.seed, s.rt))
	}
	first := s.callers[0]
	published, err := first.publish(o.seed)
	if err != nil {
		return nil, err
	}
	for _, c := range s.callers {
		if err := c.adopt(published); err != nil {
			return nil, err
		}
	}
	// Prime: one op per service (one whole cycle for publish_cycle).
	since := time.Now()
	if w.cyclePool > 0 {
		if _, err := first.op(since); err != nil {
			return nil, fmt.Errorf("prime: %w", err)
		}
		s.okOps++
	}
	for i := range first.targets {
		t := &first.targets[i]
		first.st.key = t.key
		var rec opRec
		if err := first.invoke(t, first.nextN(), nil, &rec); err != nil {
			return nil, fmt.Errorf("prime %s: %w", t.service, err)
		}
		s.okOps++
	}
	return s, nil
}

func (s *session) tearDown() error {
	var err error
	if s.r != nil {
		err = s.r.close()
	}
	if s.rt != nil {
		s.rt.CloseIdleConnections()
	}
	if s.dbDir != "" {
		err = errors.Join(err, os.RemoveAll(s.dbDir))
	}
	return err
}

// load runs one load on the session and checks the stack's own view of
// it: a run in which an op failed, a child died, or the appliance
// counted a different number of finished invocations than the callers
// did, is not a measurement.
func (s *session) load(spec loadSpec) (*loadResult, error) {
	res, err := runLoad(s.r, s.callers, spec)
	if err != nil {
		return nil, err
	}
	s.okOps += res.okTotal
	return res, s.valid(res)
}

func (s *session) valid(res *loadResult) error {
	if err := s.r.childrenAlive(); err != nil {
		return err
	}
	if n := res.failed(); n > 0 {
		return fmt.Errorf("%d of %d ops failed, first: %v", n, res.attempted(), res.firstErr)
	}
	if res.firstErr != nil {
		return fmt.Errorf("an op outside the window failed: %v", res.firstErr)
	}
	c, err := s.r.counters()
	if err != nil {
		return err
	}
	switch {
	case c.done != s.okOps || c.notDone != 0:
		return fmt.Errorf("appliance counts %d DONE and %d other invocations, callers completed %d", c.done, c.notDone, s.okOps)
	case c.denied != 0:
		return fmt.Errorf("tenant.denied = %d, want 0", c.denied)
	case c.pushFallbacks != 0:
		return fmt.Errorf("core.push_fallbacks = %d, want 0", c.pushFallbacks)
	case c.failovers != 0:
		return fmt.Errorf("gateway.failovers = %d, want 0", c.failovers)
	}
	return nil
}

// runWorkload runs one workload once, untraced or traced. An invalid
// run comes back with Correct false and the reason in Problem.
func runWorkload(o runOpts) (*runResult, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	out := &runResult{Workload: w.name, Seed: o.seed, Correct: true, Metrics: map[string]metricValue{}}
	values := map[string]float64{}
	spec := loadSpec{warm: o.warm, window: o.window, slices: windowSlices}
	note := func(res *loadResult, err error) {
		if res != nil {
			out.Attempted += res.attempted()
			out.Failed += res.failed()
		}
		if err != nil && out.Problem == "" {
			out.Correct, out.Problem = false, err.Error()
		}
	}

	if !o.traced {
		var times []float64
		var s *session
		for i := 0; i < o.setups; i++ {
			if s != nil {
				if err := s.tearDown(); err != nil {
					return nil, err
				}
			}
			t := time.Now()
			if s, err = setUp(w, o, false); err != nil {
				return nil, err
			}
			times = append(times, time.Since(t).Seconds())
		}
		res, err := s.load(spec)
		note(res, err)
		if res != nil {
			values = res.metrics(w.serviceBytes)
			// Everything before the window opens: the median set-up and
			// the fixed warm-up, as the clock saw it.
			values["setup_s"] = median(times) + float64(res.bounds[0].at)/1e9
		}
		if err := s.tearDown(); err != nil {
			return nil, err
		}
		return out.fill(values), nil
	}

	// Traced run, first half: an untraced window for the counts.
	out.Trace = 1
	spec.window = o.window / 2
	s, err := setUp(w, o, false)
	if err != nil {
		return nil, err
	}
	res, err := s.load(spec)
	note(res, err)
	var untracedMean float64
	if res != nil {
		values = res.metrics(w.serviceBytes)
		untracedMean = res.meanOpMs()
	}
	if err := s.tearDown(); err != nil {
		return nil, err
	}

	// Second half: the same workload with the tracing wiring on in both
	// children and a harness root span per op.
	s, err = setUp(w, o, true)
	if err != nil {
		return nil, err
	}
	tr := newTracedRun(s.r)
	tracer := trace.NewTracer("bench", nil, tr.col)
	for _, c := range s.callers {
		c.tr = tracer
	}
	res, err = s.load(loadSpec{
		warm: o.warm / 3, window: o.window / 2, slices: 1,
		maxOps: o.tracedOps, afterOp: tr.collect,
	})
	note(res, err)
	if res != nil {
		for k, v := range tr.metrics(res, untracedMean) {
			values[k] = v
		}
	}
	if err := s.tearDown(); err != nil {
		return nil, err
	}

	rungs, err := runRungs(o.tmp, o.rungBenchtime)
	note(nil, err)
	for k, v := range rungs {
		values[k] = v
	}
	// A traced run reports every per-layer metric; one the workload does
	// not exercise reads 0.
	for _, d := range perLayer() {
		if _, ok := values[d.Name]; !ok {
			values[d.Name] = 0
		}
	}
	return out.fill(values), nil
}

// fill copies the measured values into the result, with their units.
func (out *runResult) fill(values map[string]float64) *runResult {
	for _, d := range allMetrics() {
		if v, ok := values[d.Name]; ok {
			out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return out
}
