package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gridsim"
	"repro/internal/jsdl"
	"repro/internal/vtime"
)

// SchedulerRow summarises one policy's behaviour on the mixed workload.
type SchedulerRow struct {
	Policy         string
	MakespanS      float64
	MeanWaitWideS  float64
	MeanWaitNarrow float64
}

// SchedulerResult compares the site scheduling policies.
type SchedulerResult struct {
	Rows  []SchedulerRow
	Notes []string
}

// Render prints the comparison.
func (r *SchedulerResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== scheduler policy ablation (gridsim substrate) ==\n")
	sb.WriteString("policy        makespan_s  wait_wide_s  wait_narrow_s\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-13s %10.1f %12.1f %14.1f\n",
			row.Policy, row.MakespanS, row.MeanWaitWideS, row.MeanWaitNarrow)
	}
	return sb.String() + renderNotes(r.Notes)
}

// SchedulerPolicies runs an identical mixed workload — wide long jobs
// interleaved with narrow short ones — under each of the site's batch
// disciplines. The production-grid substrate is a real system in its own
// right; this ablation documents the fairness/throughput trade of the
// backfill choice DESIGN.md calls out.
func SchedulerPolicies(scale float64) (*SchedulerResult, error) {
	scale = orDefault(scale, 2000)
	res := &SchedulerResult{Notes: []string{
		"workload: 6 wide jobs (8 cpus, 20s) interleaved with 24 narrow jobs (1 cpu, 5s) on 16 slots",
		"aggressive: narrow jobs overtake freely; wide jobs wait longest",
		"fcfs: strict order; narrow jobs inherit the wide jobs' waits",
		"conservative: wide jobs hold reservations; harmless narrow jobs still backfill",
	}}
	for _, policy := range []gridsim.Policy{
		gridsim.PolicyAggressive, gridsim.PolicyFCFS, gridsim.PolicyConservative,
	} {
		row, err := runPolicyWorkload(policy, scale)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// policySlack is the least walltime headroom a healthy job of the
// workload has: a narrow job computes 5 s under an 8 s limit. At dilation
// d that is policySlack/d of host time in which the site must see the job
// finish, so it bounds the dilation a caller can ask for on a loaded host.
const policySlack = 3 * time.Second

func runPolicyWorkload(policy gridsim.Policy, scale float64) (*SchedulerRow, error) {
	clk := vtime.NewScaled(scale)
	site := gridsim.NewSite(gridsim.SiteConfig{
		Name: "abl", Nodes: 2, CoresPerNode: 8, Policy: policy,
	}, clk)
	const owner = "/O=Repro/CN=bench"
	if err := site.Store().Put(owner, "wide.gsh", []byte("compute 20s\n")); err != nil {
		return nil, err
	}
	if err := site.Store().Put(owner, "narrow.gsh", []byte("compute 5s\n")); err != nil {
		return nil, err
	}

	start := clk.Now()
	var wide, narrow []*gridsim.Job
	// Interleave: one wide job, then four narrow, repeated.
	for round := 0; round < 6; round++ {
		j, err := site.Submit(jsdl.Description{
			Owner: owner, Executable: "wide.gsh", CPUs: 8, WallTime: 25 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		wide = append(wide, j)
		for n := 0; n < 4; n++ {
			j, err := site.Submit(jsdl.Description{
				Owner: owner, Executable: "narrow.gsh", CPUs: 1, WallTime: 5*time.Second + policySlack,
			})
			if err != nil {
				return nil, err
			}
			narrow = append(narrow, j)
		}
	}
	for _, j := range append(append([]*gridsim.Job{}, wide...), narrow...) {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("schedpolicy: %s stuck in %s under %s", j.ID, j.State(), policy)
		}
		if j.State() != gridsim.Succeeded {
			return nil, fmt.Errorf("schedpolicy: %s ended %s (%s) under %s",
				j.ID, j.State(), j.ExitMessage(), policy)
		}
	}
	makespan := clk.Now().Sub(start).Seconds()
	return &SchedulerRow{
		Policy:         policy.String(),
		MakespanS:      makespan,
		MeanWaitWideS:  meanWait(wide),
		MeanWaitNarrow: meanWait(narrow),
	}, nil
}

func meanWait(jobs []*gridsim.Job) float64 {
	var total float64
	for _, j := range jobs {
		submitted, started, _ := j.Times()
		total += started.Sub(submitted).Seconds()
	}
	return total / float64(len(jobs))
}
