package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/tenant"
)

// sutCounters is /api/stats flattened to the counters the benchmark
// reads, summed over the fleet when the front door is the gateway.
type sutCounters struct {
	done, notDone                                    int
	statusRPCs, outputFetches                        uint64
	uploads, chunkedUploads, chunkedWire             uint64
	submitRPCs, statsRPCs, events, pushFallbacks     uint64
	probes, routed, sticky, failovers, denied, queue uint64
}

// applianceStats is the part of one appliance's /api/stats document the
// benchmark reads.
type applianceStats struct {
	Invocations map[string]int      `json:"invocations"`
	Collector   core.CollectorStats `json:"collector"`
	Events      core.EventStats     `json:"events"`
	Submit      core.SubmitStats    `json:"submit"`
	Stage       core.StageStats     `json:"stage"`
	Placement   core.PlacementStats `json:"placement"`
	Tenant      *tenant.Stats       `json:"tenant"`
}

func (c *sutCounters) add(a *applianceStats) {
	for state, n := range a.Invocations {
		if state == string(core.InvDone) {
			c.done += n
		} else {
			c.notDone += n
		}
	}
	c.statusRPCs += a.Collector.StatusRPCs
	c.outputFetches += a.Collector.OutputFetches
	c.uploads += a.Submit.Uploads
	c.chunkedUploads += a.Stage.ChunkedUploads
	c.chunkedWire += a.Stage.WireBytes
	c.submitRPCs += a.Submit.SubmitRPCs
	c.statsRPCs += a.Submit.StatsRPCs
	c.events += a.Events.EventsDelivered
	c.pushFallbacks += a.Events.FallbacksToPoll
	c.probes += a.Placement.ProbesSent
	if a.Tenant != nil {
		c.denied += a.Tenant.Denied
		c.queue += a.Tenant.Queued
	}
}

// counters fetches and flattens the front door's /api/stats, which is
// one appliance's document or the gateway's scatter-gathered one.
func (r *rig) counters() (sutCounters, error) {
	var doc struct {
		applianceStats
		Gateway *gateway.Stats `json:"gateway"`
		Fleet   []struct {
			ID    string          `json:"id"`
			Stats json.RawMessage `json:"stats"`
		} `json:"fleet"`
	}
	var c sutCounters
	if err := r.getJSON(r.base+"/api/stats", &doc); err != nil {
		return c, err
	}
	if doc.Gateway == nil {
		c.add(&doc.applianceStats)
		return c, nil
	}
	c.routed, c.sticky, c.failovers = doc.Gateway.Routed, doc.Gateway.StickyHits, doc.Gateway.Failovers
	for _, sh := range doc.Fleet {
		var a applianceStats
		if len(sh.Stats) == 0 {
			return c, fmt.Errorf("/api/stats: shard %s did not answer", sh.ID)
		}
		if err := json.Unmarshal(sh.Stats, &a); err != nil {
			return c, fmt.Errorf("/api/stats: shard %s: %w", sh.ID, err)
		}
		c.add(&a)
	}
	return c, nil
}

// boundary is one cut through the timed window: the moment, and every
// process's cumulative counters at it.
type boundary struct {
	at             int64 // ns since the load began
	sut, grid, gen procSnap
}

func (r *rig) boundary(since time.Time) (boundary, error) {
	var b boundary
	var err error
	if b.sut, err = r.snap(r.sutSide); err != nil {
		return b, err
	}
	b.at = int64(time.Since(since))
	if b.grid, err = r.snap(r.gridSide); err != nil {
		return b, err
	}
	b.gen = selfSnap()
	return b, nil
}

// loadSpec shapes one load: warm-up, then a timed window cut into
// slices. maxOps > 0 ends the window early once that many ops have
// completed in it (the traced run). afterOp, when set, runs between a
// caller's ops, outside any op's timing.
type loadSpec struct {
	warm, window time.Duration
	slices       int
	maxOps       int
	afterOp      func(c *caller, rec *opRec)
}

// loadResult is what one load produced.
type loadResult struct {
	recs     []opRec // ops that ended inside the window, by end time
	bounds   []boundary
	before   sutCounters // at the window's first boundary
	after    sutCounters // at its last
	okTotal  int         // successful ops over warm-up, window and drain
	firstErr error       // first op failure, for the report
}

// maxFailures stops a load whose ops keep failing; the run is invalid
// long before this.
const maxFailures = 100

// runLoad drives callers in a closed loop over r.
func runLoad(r *rig, callers []*caller, spec loadSpec) (*loadResult, error) {
	since := time.Now()
	var (
		opened   atomic.Int64 // when the window opened, ns since the load began
		stop     atomic.Bool
		inWindow atomic.Int64
		failures atomic.Int64
		enough   = make(chan struct{}) // closed to end the window early
		first    = make(chan struct{}) // closed when the first op ends in the window
		once     sync.Once
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      loadResult
		perC     = make([][]opRec, len(callers))
	)
	opened.Store(math.MaxInt64)
	// note counts an op that ended inside the window.
	note := func() {
		n := inWindow.Add(1)
		if n == 1 {
			close(first)
		}
		if spec.maxOps > 0 && n == int64(spec.maxOps) {
			once.Do(func() { close(enough) })
		}
	}
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			for !stop.Load() {
				rec, err := c.op(since)
				perC[i] = append(perC[i], rec)
				if err != nil {
					mu.Lock()
					if res.firstErr == nil {
						res.firstErr = err
					}
					mu.Unlock()
					if failures.Add(1) >= maxFailures {
						once.Do(func() { close(enough) })
						return
					}
					time.Sleep(time.Millisecond) // never spin on a dead server
				} else if rec.end >= opened.Load() && spec.afterOp != nil {
					spec.afterOp(c, &rec)
				}
				if rec.end >= opened.Load() {
					note()
				}
			}
		}(i, c)
	}

	// The controller cuts the window. A failed snapshot ends the load
	// and fails the run.
	var cutErr error
	cut := func(at time.Duration, last bool) bool {
		select {
		case <-time.After(at - time.Since(since)):
		case <-enough:
		}
		if last {
			// A window never closes empty: it stays open until its first
			// op has ended, however slow the host.
			select {
			case <-first:
			case <-enough:
			}
		}
		b, err := r.boundary(since)
		if err != nil {
			cutErr = err
			return false
		}
		res.bounds = append(res.bounds, b)
		select {
		case <-enough:
			return false
		default:
			return true
		}
	}
	if cut(spec.warm, false) {
		opened.Store(res.bounds[0].at)
		res.before, cutErr = r.counters()
		for k := 1; k <= spec.slices && cutErr == nil; k++ {
			if !cut(spec.warm+spec.window*time.Duration(k)/time.Duration(spec.slices), k == spec.slices) {
				break
			}
		}
	}
	if cutErr == nil && len(res.bounds) > 1 {
		res.after, cutErr = r.counters()
	}
	stop.Store(true)
	wg.Wait()
	if cutErr != nil {
		return nil, cutErr
	}
	if len(res.bounds) < 2 {
		return nil, fmt.Errorf("load ended before its window opened: %v", res.firstErr)
	}

	from, to := res.bounds[0].at, res.bounds[len(res.bounds)-1].at
	for _, recs := range perC {
		for _, rec := range recs {
			if rec.ok {
				res.okTotal++
			}
			if rec.end >= from && rec.end < to {
				res.recs = append(res.recs, rec)
			}
		}
	}
	sort.Slice(res.recs, func(i, j int) bool { return res.recs[i].end < res.recs[j].end })
	return &res, nil
}

// attempted and failed count the window's ops.
func (res *loadResult) attempted() int { return len(res.recs) }

func (res *loadResult) failed() int {
	n := 0
	for _, rec := range res.recs {
		if !rec.ok {
			n++
		}
	}
	return n
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// sortedMs returns pick(rec) in ms over the successful recs, ascending.
func sortedMs(recs []opRec, pick func(*opRec) int64) []float64 {
	out := make([]float64, 0, len(recs))
	for i := range recs {
		if recs[i].ok {
			out = append(out, ms(pick(&recs[i])))
		}
	}
	sort.Float64s(out)
	return out
}

func opTotal(r *opRec) int64 { return r.end - r.start }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceMetrics reduces a window to the metrics a user of the appliance
// would see: for each slice the value is computed from the ops that
// completed in it and the process counters at its two boundaries, and
// the median over slices is reported.
func (res *loadResult) sliceMetrics() map[string]float64 {
	n := len(res.bounds) - 1
	per := map[string][]float64{}
	i := 0
	for k := 0; k < n; k++ {
		a, b := res.bounds[k], res.bounds[k+1]
		j := i
		for j < len(res.recs) && res.recs[j].end < b.at {
			j++
		}
		lat := sortedMs(res.recs[i:j], opTotal)
		i = j
		ops := float64(len(lat))
		put := func(name string, v float64) {
			if ops == 0 {
				v = math.NaN()
			}
			per[name] = append(per[name], v)
		}
		put("ops_per_s", ops/(float64(b.at-a.at)/1e9))
		put("op_p50_ms", percentile(lat, 50))
		put("op_p95_ms", percentile(lat, 95))
		put("sut_cpu_ms_per_op", (b.sut.CPUMs-a.sut.CPUMs)/ops)
		put("sut_allocs_per_op", float64(b.sut.Mallocs-a.sut.Mallocs)/ops)
		put("sut_alloc_kb_per_op", float64(b.sut.AllocBytes-a.sut.AllocBytes)/1024/ops)
	}
	out := make(map[string]float64, len(per))
	for name, vs := range per {
		out[name] = sliceMedian(vs)
	}
	return out
}

// meanOpMs is the mean op time of the window's successful ops.
func (res *loadResult) meanOpMs() float64 {
	lat := sortedMs(res.recs, opTotal)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	return ratio(sum, float64(len(lat)))
}

// metrics is everything a window measures: sliceMetrics and
// layerMetrics.
func (res *loadResult) metrics(monolithicBytes int) map[string]float64 {
	out := res.sliceMetrics()
	for k, v := range res.layerMetrics(monolithicBytes) {
		out[k] = v
	}
	return out
}

// layerMetrics reduces a window to the per-layer counts: deltas of the
// appliance's own counters and of each process's resource use between
// the window's first and last boundary, per completed op.
// monolithicBytes is the size of the executable a non-chunked upload
// ships whole; the appliance counts wire bytes only for chunked ones.
func (res *loadResult) layerMetrics(monolithicBytes int) map[string]float64 {
	first, last := res.bounds[0], res.bounds[len(res.bounds)-1]
	lat := sortedMs(res.recs, opTotal)
	ops := float64(len(lat))
	secs := float64(last.at-first.at) / 1e9
	d := func(a, b uint64) float64 { return float64(b - a) }
	per := func(a, b uint64) float64 { return ratio(d(a, b), ops) }
	bf, af := res.before, res.after

	monolithic := d(bf.uploads, af.uploads) - d(bf.chunkedUploads, af.chunkedUploads)
	wire := d(bf.chunkedWire, af.chunkedWire) + monolithic*float64(monolithicBytes)
	hits := float64(last.sut.CacheHits - first.sut.CacheHits)
	misses := float64(last.sut.CacheMisses - first.sut.CacheMisses)

	return map[string]float64{
		"core.status_rpcs_per_op":    per(bf.statusRPCs, af.statusRPCs),
		"core.output_fetches_per_op": per(bf.outputFetches, af.outputFetches),
		"core.uploads_per_op":        per(bf.uploads, af.uploads),
		"core.stage_wire_kb_per_op":  ratio(wire/1024, ops),
		"core.submit_rpcs_per_op":    per(bf.submitRPCs, af.submitRPCs),
		"core.stats_rpcs_per_op":     per(bf.statsRPCs, af.statsRPCs),
		"core.events_per_op":         per(bf.events, af.events),
		"core.push_fallbacks":        d(bf.pushFallbacks, af.pushFallbacks),
		"core.probes_per_op":         per(bf.probes, af.probes),
		"blobdb.cache_hit_ratio":     ratio(hits, hits+misses),
		"blobdb.wal_syncs_per_op":    ratio(float64(last.sut.WALSyncs-first.sut.WALSyncs), ops),
		"blobdb.wal_writes_per_op":   ratio(float64(last.sut.WALWrites-first.sut.WALWrites), ops),
		"gateway.sticky_ratio":       ratio(d(bf.sticky, af.sticky), d(bf.routed, af.routed)),
		"gateway.failovers":          d(bf.failovers, af.failovers),
		"tenant.denied":              d(bf.denied, af.denied),
		"tenant.queued_per_op":       per(bf.queue, af.queue),
		"proc.sut.gc_pause_ms_per_s": ratio(d(first.sut.GCPauseNs, last.sut.GCPauseNs)/1e6, secs),
		"proc.sut.heap_inuse_mb":     float64(last.sut.HeapInuse) / (1 << 20),
		"proc.sut.goroutines":        float64(last.sut.Goroutines),
		"proc.grid.cpu_ms_per_op":    ratio(last.grid.CPUMs-first.grid.CPUMs, ops),
		"proc.grid.allocs_per_op":    per(first.grid.Mallocs, last.grid.Mallocs),
		"proc.gen.cpu_ms_per_op":     ratio(last.gen.CPUMs-first.gen.CPUMs, ops),
		"client.op_p99_ms":           percentile(lat, 99),
		"client.execute_p50_ms":      percentile(sortedMs(res.recs, func(r *opRec) int64 { return r.execute }), 50),
		"client.wait_p50_ms":         percentile(sortedMs(res.recs, func(r *opRec) int64 { return r.wait }), 50),
		"client.upload_p50_ms":       percentile(sortedMs(res.recs, func(r *opRec) int64 { return r.upload }), 50),
		"client.delete_p50_ms":       percentile(sortedMs(res.recs, func(r *opRec) int64 { return r.del }), 50),
		"fail_ratio":                 ratio(float64(res.failed()), float64(res.attempted())),
	}
}
