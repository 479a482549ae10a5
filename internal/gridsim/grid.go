// Package gridsim simulates the production Grid of the paper's
// evaluation: a TeraGrid-like federation of supercomputing centres, each
// with a batch scheduler (FCFS plus aggressive backfill), a staging
// store fed by GridFTP, and a gsh execution engine. The middleware above
// it sees only the JSE contract — stage files, submit a description,
// poll status, fetch output — which is exactly the interface production
// Grids exposed ("a production Grid is normally accessed with strict
// secure interface", §II-B).
package gridsim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/jsdl"
	"repro/internal/trace"
)

// Grid errors.
var (
	ErrNoSites    = errors.New("gridsim: grid has no sites")
	ErrNoSuchSite = errors.New("gridsim: no such site")
)

// Grid federates sites behind a broker.
type Grid struct {
	sites map[string]*Site
	order []string
	bus   *EventBus
}

// New builds a grid from site configs.
func New(configs ...SiteConfig) (*Grid, error) {
	if len(configs) == 0 {
		return nil, ErrNoSites
	}
	g := &Grid{
		sites: make(map[string]*Site, len(configs)),
		bus:   NewEventBus(),
	}
	for _, cfg := range configs {
		if cfg.Name == "" || cfg.slots() <= 0 {
			return nil, fmt.Errorf("gridsim: site %q needs a name and capacity", cfg.Name)
		}
		if _, dup := g.sites[cfg.Name]; dup {
			return nil, fmt.Errorf("gridsim: duplicate site %q", cfg.Name)
		}
		site := NewSite(cfg)
		site.bus = g.bus
		g.sites[cfg.Name] = site
		g.order = append(g.order, cfg.Name)
	}
	sort.Strings(g.order)
	return g, nil
}

// Events returns the grid-wide transition bus: every site's job
// lifecycle transitions and stdout bumps publish here, keyed by owner and
// submitter.
// The gatekeeper's event streams subscribe to it so completion is pushed
// instead of discovered by polling.
func (g *Grid) Events() *EventBus { return g.bus }

// SetTracer enables job-lifecycle tracing at every site: traced
// submissions record "job.queue" and "job.run" spans at the exact
// scheduler timestamps. Call before submitting; a nil tracer keeps
// tracing off.
func (g *Grid) SetTracer(t *trace.Tracer) {
	for _, s := range g.sites {
		s.SetTracer(t)
	}
}

// Site returns the named site.
func (g *Grid) Site(name string) (*Site, error) {
	s, ok := g.sites[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchSite, name)
	}
	return s, nil
}

// SiteNames lists sites, sorted.
func (g *Grid) SiteNames() []string {
	return append([]string(nil), g.order...)
}

// Submit brokers and submits: the description's Site is honoured when
// set, otherwise the least-loaded site that has the executable staged is
// chosen.
func (g *Grid) Submit(desc jsdl.Description) (*Job, error) {
	return g.SubmitTraced(desc, "", trace.SpanContext{})
}

// SubmitTraced is Submit on behalf of a remote submitter (the job's
// Submitter key) with a trace context: when valid (and a tracer is set),
// the job's queue and run phases become spans under it.
func (g *Grid) SubmitTraced(desc jsdl.Description, submitter string, tc trace.SpanContext) (*Job, error) {
	desc.Normalize()
	if desc.Site != "" {
		site, err := g.Site(desc.Site)
		if err != nil {
			return nil, err
		}
		return site.SubmitTraced(desc, submitter, tc)
	}
	// Prefer sites where the executable is already staged.
	var candidates []*Site
	for _, name := range g.order {
		s := g.sites[name]
		if _, err := s.store.Size(desc.Owner, desc.Executable); err == nil && desc.CPUs <= s.Slots() {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: %s staged nowhere for %s", ErrNotStaged, desc.Executable, desc.Owner)
	}
	best := candidates[0]
	bestLoad := best.loadFactor()
	for _, s := range candidates[1:] {
		if load := s.loadFactor(); load < bestLoad {
			best, bestLoad = s, load
		}
	}
	return best.SubmitTraced(desc, submitter, tc)
}

// Job resolves a job ID ("site:job-n") anywhere in the grid.
func (g *Grid) Job(id string) (*Job, error) {
	site, _, ok := strings.Cut(id, ":")
	if !ok {
		return nil, fmt.Errorf("%w: malformed id %q", ErrNoSuchJob, id)
	}
	s, err := g.Site(site)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchJob, id)
	}
	return s.Job(id)
}

// Jobs resolves many job IDs in one pass. The result slices are
// parallel to ids: jobs[i] is non-nil exactly when errs[i] is nil. A
// bad ID never fails the batch — callers (the gatekeeper's status-batch
// endpoint) report per-entry errors instead.
func (g *Grid) Jobs(ids []string) (jobs []*Job, errs []error) {
	jobs = make([]*Job, len(ids))
	errs = make([]error, len(ids))
	for i, id := range ids {
		jobs[i], errs[i] = g.Job(id)
	}
	return jobs, errs
}

// SiteUsage pairs a site name with one owner's usage there.
type SiteUsage struct {
	Site  string     `json:"site"`
	Usage OwnerUsage `json:"usage"`
}

// Usage reports owner's consumption at every site where it is non-zero.
func (g *Grid) Usage(owner string) []SiteUsage {
	var out []SiteUsage
	for _, name := range g.order {
		u := g.sites[name].Usage(owner)
		if u.Jobs > 0 || u.CPUSeconds > 0 {
			out = append(out, SiteUsage{Site: name, Usage: u})
		}
	}
	return out
}

// Stats snapshots every site.
func (g *Grid) Stats() []SiteStats {
	out := make([]SiteStats, 0, len(g.order))
	for _, name := range g.order {
		out = append(out, g.sites[name].Stats())
	}
	return out
}

// TeraGrid returns the default machine file: eleven centres, echoing
// "the TeraGrid is a production Grid infrastructure which contains 11
// supercomputing centers across U.S." (paper §VIII-A). Capacities are
// stylised, not historical.
func TeraGrid() (*Grid, error) {
	mk := func(name string, nodes, cores int, factor float64) SiteConfig {
		return SiteConfig{
			Name: name, Nodes: nodes, CoresPerNode: cores,
			CPUFactor: factor,
		}
	}
	return New(
		mk("ncsa-abe", 120, 8, 1.2),
		mk("sdsc-ds", 96, 8, 1.0),
		mk("psc-pople", 48, 16, 1.1),
		mk("tacc-ranger", 256, 16, 1.3),
		mk("anl-teraport", 32, 4, 0.9),
		mk("purdue-steele", 64, 8, 1.0),
		mk("iu-bigred", 96, 4, 0.9),
		mk("ornl-nstg", 16, 4, 0.8),
		mk("nics-kraken", 256, 12, 1.3),
		mk("lsu-queenbee", 48, 8, 1.0),
		mk("ucanl-uc", 24, 4, 0.8),
	)
}
