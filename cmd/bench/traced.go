package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// tracedRun aggregates the span trees of a traced load. Each op's
// trace is pulled from both children right after the op, while the
// children's span rings (4096 spans) still hold it.
type tracedRun struct {
	r   *rig
	col *trace.Collector // the harness's own client.* spans

	mu         sync.Mutex
	selfMs     map[string]float64 // by span name, summed over ops
	ops        int
	spans      int
	coveredMs  float64 // time within client.op during which a layer's span was open
	clientOpMs float64 // summed client.op durations
}

func newTracedRun(r *rig) *tracedRun {
	return &tracedRun{r: r, col: trace.NewCollector(0, 0), selfMs: map[string]float64{}}
}

// spanKey maps a recorded span name to the name it is reported under:
// the gateway's "route:<kind>" spans are summed as "route".
func spanKey(name string) string {
	if strings.HasPrefix(name, "route:") {
		return "route"
	}
	return name
}

func hasSpan(spans []trace.SpanData, name string) bool {
	for i := range spans {
		if spans[i].Name == name {
			return true
		}
	}
	return false
}

// collect pulls one op's trace and folds its self times in. It runs
// between a caller's ops, so its cost is in no op's time.
func (t *tracedRun) collect(c *caller, rec *opRec) {
	// The appliance ends an invocation's root span just after it
	// releases the waiter, so the reply to wait can overtake it by a
	// few microseconds: pull again until the root is there.
	var sut []trace.SpanData
	for try := 0; try < 50; try++ {
		if err := t.r.getJSON(t.r.sutSide+"/bench/trace?id="+rec.traceID, &sut); err != nil {
			return // the run's validity check reports a dead child
		}
		if hasSpan(sut, "invoke") {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	var grid []trace.SpanData
	if err := t.r.getJSON(t.r.gridSide+"/bench/trace?id="+rec.traceID, &grid); err != nil {
		return
	}
	all := append(append(t.col.Trace(rec.traceID), sut...), grid...)
	self := selfTimes(all)

	// Coverage is the share of the op's wall time during which at least
	// one span recorded by a layer (not by the harness) was open.
	var op *trace.SpanData
	for i := range all {
		if all[i].Name == "client.op" {
			op = &all[i]
		}
	}
	var layers []interval
	if op != nil {
		for i := range all {
			if sd := &all[i]; !strings.HasPrefix(sd.Name, "client.") {
				layers = append(layers, clip(interval{sd.Start, sd.End}, interval{op.Start, op.End}))
			}
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.spans += len(all)
	if op != nil {
		t.clientOpMs += op.DurationMS
		t.coveredMs += float64(unionLength(layers)) / float64(time.Millisecond)
	}
	for i := range all {
		if sd := &all[i]; sd != op {
			t.selfMs[spanKey(sd.Name)] += float64(self[sd.SpanID]) / float64(time.Millisecond)
		}
	}
}

// metrics reports the span table and the run's own numbers.
// untracedMeanMs is the mean op time of the untraced window.
func (t *tracedRun) metrics(res *loadResult, untracedMeanMs float64) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := float64(t.ops)
	out := map[string]float64{
		"trace.spans_per_op": ratio(float64(t.spans), ops),
		"trace.coverage_pct": 100 * ratio(t.coveredMs, t.clientOpMs),
	}
	for _, name := range spanNames {
		out["span."+name+".self_ms_per_op"] = ratio(t.selfMs[name], ops)
	}
	// In a closed loop the rate is callers ÷ mean op time, so the
	// slowdown of the mean op time is the slowdown of the rate. Using op
	// times keeps the harness's own trace pulls, which sit between ops,
	// out of the overhead.
	if untracedMeanMs > 0 {
		out["trace.overhead_pct"] = 100 * (res.meanOpMs()/untracedMeanMs - 1)
	}
	return out
}
