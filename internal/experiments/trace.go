package experiments

import (
	"fmt"
	"sort"

	"repro/internal/appliance"
	"repro/internal/trace"
)

// TraceSpanSummary aggregates one span name within one scenario.
type TraceSpanSummary struct {
	Service string  `json:"service"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// TraceScenario is one traced invocation's breakdown.
type TraceScenario struct {
	Scenario  string             `json:"scenario"`
	Ticket    string             `json:"ticket"`
	SpanCount int                `json:"span_count"`
	Services  []string           `json:"services"`
	Orphans   int                `json:"orphans"`
	WallMS    float64            `json:"wall_ms"`
	Breakdown []TraceSpanSummary `json:"breakdown"`
}

// TraceResult is the -trace experiment outcome (results/trace.json).
type TraceResult struct {
	Name  string          `json:"name"`
	Title string          `json:"title"`
	Rows  []TraceScenario `json:"rows"`
	Notes []string        `json:"notes"`
}

// Render prints the per-scenario span breakdown as a table.
func (r *TraceResult) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.Name, r.Title)
	for _, row := range r.Rows {
		out += fmt.Sprintf("-- %s: %d spans, %d services, %.0f ms wall, %d orphan(s) --\n",
			row.Scenario, row.SpanCount, len(row.Services), row.WallMS, row.Orphans)
		for _, b := range row.Breakdown {
			out += fmt.Sprintf("  %-10s %-14s x%-4d %10.1f ms\n", b.Service, b.Name, b.Count, b.TotalMS)
		}
	}
	return out + renderNotes(r.Notes)
}

func summarize(scenario, ticket string, spans []trace.SpanData) TraceScenario {
	row := TraceScenario{Scenario: scenario, Ticket: ticket, SpanCount: len(spans)}
	if len(spans) == 0 {
		return row
	}
	ids := make(map[string]bool, len(spans))
	for _, sd := range spans {
		ids[sd.SpanID] = true
	}
	services := map[string]bool{}
	agg := map[string]*TraceSpanSummary{}
	t0, t1 := spans[0].Start, spans[0].End
	for _, sd := range spans {
		services[sd.Service] = true
		if sd.ParentID != "" && !ids[sd.ParentID] {
			row.Orphans++
		}
		if sd.Start.Before(t0) {
			t0 = sd.Start
		}
		if sd.End.After(t1) {
			t1 = sd.End
		}
		key := sd.Service + "/" + sd.Name
		s := agg[key]
		if s == nil {
			s = &TraceSpanSummary{Service: sd.Service, Name: sd.Name}
			agg[key] = s
		}
		s.Count++
		s.TotalMS += sd.DurationMS
	}
	for svc := range services {
		row.Services = append(row.Services, svc)
	}
	sort.Strings(row.Services)
	row.WallMS = float64(t1.Sub(t0)) / 1e6
	for _, s := range agg {
		row.Breakdown = append(row.Breakdown, *s)
	}
	sort.Slice(row.Breakdown, func(i, j int) bool {
		return row.Breakdown[i].TotalMS > row.Breakdown[j].TotalMS
	})
	return row
}

// TraceBreakdown runs the Fig. 6/7-style small and large invocations
// under the two profiles — stock is appliance.Paper — with tracing on, and
// reports each run's span breakdown: the per-request attribution of
// where an invocation spends its time (credential traffic, DB fetch,
// staging, submit, polling) that the 3-second resource buckets cannot
// resolve. largeBytes <= 0 picks the paper's ~5 MB file.
func TraceBreakdown(opts Options, largeBytes int) (*TraceResult, error) {
	largeBytes = orDefault(largeBytes, largeProgramSize)
	table := variantTable{"trace", []variant{
		{"stock", nil},
		{"production", func(o *Options) { o.Appliance = appliance.Production("") }},
	}}
	res := &TraceResult{
		Name:  "trace",
		Title: "Per-request span breakdown, small vs large invocation, paper vs production profile",
		Notes: []string{
			"each scenario is one invocation's full cross-service span tree",
			"stock rows show the paper's pipeline: logon, db.fetch, stage, submit, poll ticks",
			"production rows show the other profile: placement probe, chunked gzip staging, pushed events in place of poll ticks",
		},
	}
	opts.Tracing = true
	for _, size := range []struct{ name, program string }{
		{"small", smallProgram},
		{"large", padded(smallProgram, largeBytes)},
	} {
		table.what = "trace " + size.name
		err := table.run(opts, func(variant string, r *rig) error {
			scenario := size.name + "-" + variant
			svc, err := r.deploy("tracejob.gsh", size.program, "tag")
			if err != nil {
				return err
			}
			ticket, err := svc.start(map[string]string{"tag": scenario})
			if err != nil {
				return err
			}
			if _, err := svc.wait(ticket); err != nil {
				return err
			}
			spans, err := r.door("").Trace(ticket)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, summarize(scenario, ticket, spans))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
