// The place step orders the stageable sites best-first: the paper's by
// load alone, data-aware placement by the estimated seconds until the job
// could be running — the load term plus the cold-transfer time of the
// wire chunks the site still lacks, which the chunk store's dedup probe
// (POST /ftp/chunks/have) tells, cached per service and site with
// singleflight, so a 64-way burst costs one probe per site, not 64.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gridftp"
	"repro/internal/gridsim"
	"repro/internal/trace"
)

const (
	// placementProbeTTL is how long one possession probe's answer is
	// trusted. Staleness is benign: chunks only accumulate, and eviction
	// at the site is healed by the upload's own probe-and-ship cycle.
	placementProbeTTL = 30 * time.Second
	// placementLoadPenalty scores one full load unit (committed+queued
	// work per slot) as this much queueing delay: a coarse stand-in, not
	// a calibrated estimator, by which a near-idle site must transfer a
	// lot of bytes to beat a possessing site with a slot or two taken.
	placementLoadPenalty = 30 * time.Second
	// placementWANBps mirrors netsim.WAN's shaped rate ("about 80 to 90
	// KB/s"), the path every cold chunk crosses.
	placementWANBps = 85 << 10
)

// PlacementStats counts the data-aware placement control plane's work.
type PlacementStats struct {
	// ProbesSent counts possession probes issued to sites (one per site
	// per cache miss; concurrent misses collapse onto one probe).
	ProbesSent uint64 `json:"probes_sent"`
	// ProbeCacheHits counts placements served from a fresh cached
	// possession answer, including waiters that joined an in-flight
	// probe instead of issuing their own.
	ProbeCacheHits uint64 `json:"probe_cache_hits"`
	// ProbeFailures counts probes that errored; the site is then scored
	// possession-unknown (no credit) instead of failing placement.
	ProbeFailures uint64 `json:"probe_failures"`
	// PlacementsScored counts data-aware site choices; Redirected counts
	// the subset where possession overruled the pure load order.
	PlacementsScored     uint64 `json:"placements_scored"`
	PlacementsRedirected uint64 `json:"placements_redirected"`
}

// PlacementStats snapshots the placement control-plane counters.
func (o *OnServe) PlacementStats() PlacementStats { return o.placement.Snapshot() }

// siteKey names one service at one site.
type siteKey struct{ service, site string }

// siteStats is the place step's source of scheduler statistics.
type siteStats interface {
	fetch(sessionID string) ([]gridsim.SiteStats, error)
}

// statsPerCall is the paper's: one scheduler round-trip per invocation.
type statsPerCall struct{ o *OnServe }

func (s statsPerCall) fetch(sessionID string) ([]gridsim.SiteStats, error) {
	s.o.submit.Update(func(st *SubmitStats) { st.StatsRPCs++ })
	return s.o.parts.Agent.GridStats(sessionID)
}

// statsCache keeps a snapshot for ttl (staleness only shifts which site
// wins); callers that find it expired share one fetch.
type statsCache struct {
	statsPerCall
	ttl     time.Duration
	mu      sync.Mutex
	snap    []gridsim.SiteStats
	at      time.Time
	flights flights[struct{}, []gridsim.SiteStats]
}

func (c *statsCache) fetch(sessionID string) ([]gridsim.SiteStats, error) {
	stats, joined, err := c.flights.do(&c.mu, struct{}{}, func() ([]gridsim.SiteStats, bool) {
		return c.snap, c.snap != nil && time.Since(c.at) < c.ttl
	}, func() ([]gridsim.SiteStats, error) {
		stats, err := c.statsPerCall.fetch(sessionID)
		if err == nil {
			c.mu.Lock()
			c.snap, c.at = stats, time.Now()
			c.mu.Unlock()
		}
		return stats, err
	})
	if joined {
		c.o.submit.Update(func(st *SubmitStats) { st.StatsCollapsed++ })
	}
	return stats, err
}

// pickSites is the place step: it orders the stageable sites best-first
// into into[:0], so a caller's [8]string holds eight without allocating.
func (o *OnServe) pickSites(sessionID string, exe *executable, tc trace.SpanContext, into []string) ([]string, error) {
	stats, err := o.stats.fetch(sessionID)
	if err != nil {
		return nil, fmt.Errorf("onserve: grid stats: %w", err)
	}
	var loads [8]siteLoad
	cands := o.stageableLoads(exe.owner, stats, loads[:0])
	if len(cands) == 0 {
		return nil, fmt.Errorf("onserve: no stageable site available")
	}
	return o.poss.order(sessionID, exe, cands, tc, into), nil
}

// siteLoad is one stageable site's load term: committed plus queued
// work per slot.
type siteLoad struct {
	name string
	load float64
}

// cmpLoad orders sites by load, equal loads by name.
func cmpLoad(a, b siteLoad) int {
	return cmp.Or(cmp.Compare(a.load, b.load), strings.Compare(a.name, b.name))
}

// stageableLoads appends to cands the load terms of the sites in a
// scheduler-statistics snapshot the agent can stage to and owner's
// tenancy policy allows (order as reported). The principal is the
// service's owner, not the invoking caller: placement is a property of
// whose executable runs where, and the core never sees the caller's key.
func (o *OnServe) stageableLoads(owner string, stats []gridsim.SiteStats, cands []siteLoad) []siteLoad {
	ctl := o.parts.Tenancy
	for _, st := range stats {
		if _, ok := o.parts.Agent.SiteURL(st.Name); !ok {
			continue // no staging endpoint for this site
		}
		if ctl != nil && owner != "" && !ctl.SiteAllowed(owner, st.Name) {
			continue
		}
		// A drained site (zero slots) counts as fully loaded: dividing by
		// Slots would yield NaN/Inf and corrupt the sort order.
		load := math.Inf(1)
		if st.Slots > 0 {
			load = float64(st.Slots-st.FreeSlots+st.Queued) / float64(st.Slots)
		}
		cands = append(cands, siteLoad{name: st.Name, load: load})
	}
	return cands
}

// possEntry is one cached possession answer for a service at a site.
type possEntry struct {
	// missing is the wire bytes the site lacked at probe time; total the
	// service's full wire size then. ok is false when the probe failed
	// (possession-unknown): the entry still occupies the cache for one
	// TTL so a dead site is not re-probed per invocation.
	missing int64
	total   int64
	ok      bool
	at      time.Time
}

// possession is the fraction of wire bytes the site already holds.
func (e *possEntry) possession() float64 {
	if !e.ok || e.total <= 0 {
		return 0
	}
	return 1 - float64(e.missing)/float64(e.total)
}

// possession is data-aware placement: answers by service and site
// trusted for ttl, the probes in flight, and the chunk wire whose chunks
// it asks about. A nil possession is the paper's placement, by load: a
// static call, unlike an interface's, keeps the caller's arrays on its
// stack.
type possession struct {
	o       *OnServe
	wire    *chunkWire
	ttl     time.Duration
	mu      sync.Mutex
	cache   map[siteKey]possEntry
	flights flights[siteKey, possEntry]
}

// cached is the cache's answer for key while it is fresh at now. p.mu is
// held.
func (p *possession) cached(key siteKey, now time.Time) (possEntry, bool) {
	e, ok := p.cache[key]
	return e, ok && now.Sub(e.at) < p.ttl
}

// wireChunks is how the executable would chunk on the wire, cut on first
// demand so a placement every site answers from cache pays no SHA-256
// pass — and no fetch, which runs only when the raw bytes, not the stored
// gzip, are the wire. Nil means possession cannot be probed: the chunk
// protocol does not apply, or the row does not read (the stage step says).
func (x *executable) wireChunks(w *chunkWire) *gridftp.Cut {
	x.cutOnce.Do(func() {
		file, err := w.file(x)
		if err != nil {
			return
		}
		if !file.GzipWire() {
			x.fetch()
		}
		x.cut, _ = file.Cut(gridftp.DefaultChunkBytes)
	})
	return x.cut
}

// placementScore folds one site's load and missing wire bytes into the
// estimated seconds until its job could be running. Lower is better.
func placementScore(load float64, missingBytes int64) float64 {
	return load*placementLoadPenalty.Seconds() + float64(missingBytes)/float64(placementWANBps)
}

// siteScore is one candidate's scored placement verdict.
type siteScore struct {
	name       string
	possession float64
	missing    int64
	probed     bool // false: possession unknown (probe failed/unsupported)
	score      float64
}

func scoreSite(c siteLoad, e possEntry) siteScore {
	return siteScore{name: c.name, possession: e.possession(), missing: e.missing, probed: e.ok,
		score: placementScore(c.load, e.missing)}
}

// orderScores sorts scored candidates best-first with a deterministic
// tie-break: equal scores order by site name, so identical inputs place
// identically across runs.
func orderScores(scores []siteScore) {
	slices.SortFunc(scores, func(a, b siteScore) int {
		return cmp.Or(cmp.Compare(a.score, b.score), strings.Compare(a.name, b.name))
	})
}

// order writes cands' names into into[:0], best first, ties by name: by
// load for a nil possession, else scored from the cache under one lock
// and from parallel probes, a failed one as a full cold transfer. A
// "place" span records the decision.
func (p *possession) order(sessionID string, exe *executable, cands []siteLoad, tc trace.SpanContext, into []string) []string {
	out := into[:0]
	if p == nil {
		slices.SortFunc(cands, cmpLoad)
		for _, c := range cands {
			out = append(out, c.name)
		}
		return out
	}
	o := p.o
	sp := o.parts.Tracing.StartSpan("place", tc)
	sp.Set("service", exe.service)
	var buf [8]siteScore
	scores := slices.Grow(buf[:0], len(cands))[:len(cands)] // a site not yet scored has no name
	now, hits := time.Now(), 0
	p.mu.Lock()
	for i, c := range cands {
		if e, ok := p.cached(siteKey{exe.service, c.name}, now); ok {
			scores[i] = scoreSite(c, e)
			hits++
		}
	}
	p.mu.Unlock()
	o.placement.Update(func(ps *PlacementStats) { ps.ProbeCacheHits += uint64(hits) })
	if hits < len(cands) {
		p.probeScores(sessionID, exe, cands, scores)
	}

	// Did possession overrule the pure load order's winner?
	orderScores(scores)
	redirected := scores[0].name != slices.MinFunc(cands, cmpLoad).name
	o.placement.Update(func(ps *PlacementStats) {
		ps.PlacementsScored++
		if redirected {
			ps.PlacementsRedirected++
		}
	})
	if redirected {
		sp.Set("redirected", "true")
	}
	if sp != nil { // formatting the verdict costs an object a nil span would drop
		sp.Set("site", scores[0].name)
		sp.Set("possession", fmtPossession(scores[0].possession))
		sp.Set("probe", probeLabel(scores[0].probed))
		sp.SetInt("missing_bytes", scores[0].missing)
	}
	sp.End()

	for _, s := range scores {
		out = append(out, s.name)
	}
	return out
}

// probeScores scores, in parallel, each candidate the cache did not
// answer (its score has no name yet), through a slice of their own, so
// that scores, which the probes never see, can live on the caller's stack.
func (p *possession) probeScores(sessionID string, exe *executable, cands []siteLoad, scores []siteScore) {
	probed := make([]siteScore, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		if scores[i].name != "" {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, hit := p.probe(sessionID, c.name, exe)
			probed[i] = scoreSite(c, e)
			if hit {
				p.o.placement.Update(func(ps *PlacementStats) { ps.ProbeCacheHits++ })
			}
		}()
	}
	wg.Wait()
	for i, s := range probed {
		if s.name != "" {
			scores[i] = s
		}
	}
}

// probe answers "how much of the service's wire is already at site?"
// from the TTL cache when fresh, otherwise through one batched HaveChunks
// probe concurrent callers share. hit reports whether the answer came
// without issuing a new probe (cache or joined flight).
func (p *possession) probe(sessionID, site string, exe *executable) (possEntry, bool) {
	key := siteKey{exe.service, site}
	led := false
	e, _, _ := p.flights.do(&p.mu, key, func() (possEntry, bool) {
		return p.cached(key, time.Now())
	}, func() (possEntry, error) {
		led = true
		e := p.probeOnce(sessionID, site, exe)
		p.mu.Lock()
		p.cache[key] = e
		p.mu.Unlock()
		return e, nil
	})
	return e, !led
}

// probeOnce issues one possession probe against site.
func (p *possession) probeOnce(sessionID, site string, exe *executable) possEntry {
	now := time.Now()
	cut := exe.wireChunks(p.wire)
	if cut == nil {
		// Chunk protocol inapplicable: possession unknown, score the site
		// as a full cold transfer of the raw blob.
		size := int64(exe.row.RawSize)
		return possEntry{missing: size, total: size, at: now}
	}
	total := cut.WireBytes
	p.o.placement.Update(func(ps *PlacementStats) { ps.ProbesSent++ })
	missing, err := p.o.parts.Agent.HaveChunks(sessionID, site, cut.Digests())
	if err != nil {
		// Degradation, not failure: the site is scored possession-unknown
		// — the load term plus a full cold transfer — so a dead or
		// stock-protocol server costs it the possession credit but never
		// fails pickSites.
		p.o.placement.Update(func(ps *PlacementStats) { ps.ProbeFailures++ })
		return possEntry{missing: total, total: total, at: now}
	}
	var missingBytes int64
	for _, d := range missing {
		missingBytes += int64(cut.Sizes[d])
	}
	return possEntry{missing: missingBytes, total: total, ok: true, at: now}
}

// note records that a staging just put the service's full wire at site,
// credited without waiting out the probe TTL.
func (p *possession) note(service, site string, total int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cache[siteKey{service, site}] = possEntry{missing: 0, total: total, ok: true, at: time.Now()}
	p.mu.Unlock()
}

// forget drops every cached possession answer for service.
func (p *possession) forget(service string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for k := range p.cache {
		if k.service == service {
			delete(p.cache, k)
		}
	}
	p.mu.Unlock()
}

func fmtPossession(f float64) string {
	return strconv.FormatFloat(f, 'f', 2, 64)
}

func probeLabel(probed bool) string {
	if probed {
		return "known"
	}
	return "unknown"
}
