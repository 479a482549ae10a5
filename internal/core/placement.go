// Data-aware placement (Config.DataAwarePlacement): pickSites stops
// ordering sites by load alone and instead scores every candidate by
// the estimated seconds until its job could be running — the queue/load
// term plus the cold-transfer time of whatever wire chunks the site is
// still missing. Possession is discovered through the chunk store's
// dedup probe (POST /ftp/chunks/have), which PR 4 already exposes as a
// free data-locality oracle; a TTL cache per service and site with
// singleflight makes a 64-way burst cost one probe per site, not 64.
package core

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gridftp"
	"repro/internal/trace"
)

const (
	// placementProbeTTL is how long one possession probe's answer is
	// trusted. Staleness is benign in both directions: chunks only
	// accumulate (an overestimate of missing bytes just re-probes
	// sooner), and eviction at the site is healed by the upload path's
	// own probe-and-ship cycle.
	placementProbeTTL = 30 * time.Second
	// placementLoadPenalty converts the load term (committed+queued work
	// per slot) into comparable seconds: one full load unit is scored as
	// this much queueing delay. It is a coarse stand-in for the paper
	// grid's job granularity, not a calibrated estimator — the point is
	// that a near-idle site must transfer a lot of bytes to beat a
	// possessing site with a slot or two taken.
	placementLoadPenalty = 30 * time.Second
	// placementWANBps mirrors netsim.WAN's shaped rate ("about 80 to 90
	// KB/s"), the path every cold chunk crosses.
	placementWANBps = 85 << 10
)

// PlacementStats counts the data-aware placement control plane's work.
// All zero while Config.DataAwarePlacement is off.
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

// siteKey names one service at one site: the key of the possession cache
// and of the staging flights.
type siteKey struct{ service, site string }

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

// possState is the possession probe cache: answers by service and site
// plus the in-flight probes concurrent bursts collapse onto.
type possState struct {
	mu      sync.Mutex
	cache   map[siteKey]possEntry
	flights flights[siteKey, possEntry]
}

// cachedPossession is the cache's answer for key while it is fresh at
// now. o.poss.mu is held.
func (o *OnServe) cachedPossession(key siteKey, now time.Time) (possEntry, bool) {
	e, ok := o.poss.cache[key]
	return e, ok && now.Sub(e.at) < o.probeTTL
}

// wireChunks is how the executable would chunk on the wire, cut on first
// demand so a placement every site answers from cache pays no SHA-256
// pass — and no fetch, which runs only when the raw bytes, not the stored
// gzip, are the wire. Nil means possession cannot be probed: the chunk
// protocol does not apply, or the row does not read (the stage step says).
func (x *executable) wireChunks() *gridftp.Cut {
	x.cutOnce.Do(func() {
		file, err := x.file()
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
	load       float64
	possession float64
	missing    int64
	probed     bool // false: possession unknown (probe failed/unsupported)
	score      float64
}

func scoreSite(c siteLoad, e possEntry) siteScore {
	return siteScore{name: c.name, load: c.load, possession: e.possession(), missing: e.missing,
		probed: e.ok, score: placementScore(c.load, e.missing)}
}

// orderScores sorts scored candidates best-first with a deterministic
// tie-break: equal scores order by site name, so identical inputs place
// identically across runs.
func orderScores(scores []siteScore) {
	slices.SortFunc(scores, func(a, b siteScore) int {
		return cmp.Or(cmp.Compare(a.score, b.score), strings.Compare(a.name, b.name))
	})
}

// placeDataAware is pickSites' scoring branch: score every site the
// possession cache answers under one lock, probe the others in parallel
// (singleflight absorbs bursts), fold possession with the load term into
// one comparable score, and order best-first. A failed probe degrades that
// site to possession-unknown — scored on load alone plus a full cold
// transfer, never an error. The decision is recorded as a "place" span
// under the invocation, and the order written into into[:0].
func (o *OnServe) placeDataAware(sessionID string, exe *executable, cands []siteLoad, tc trace.SpanContext, into []string) []string {
	sp := o.parts.Tracing.StartSpan("place", tc)
	sp.Set("service", exe.service)

	var buf [8]siteScore
	scores := slices.Grow(buf[:0], len(cands))[:len(cands)] // a site not yet scored has no name
	now, hits := time.Now(), 0
	o.poss.mu.Lock()
	for i, c := range cands {
		if e, ok := o.cachedPossession(siteKey{exe.service, c.name}, now); ok {
			scores[i] = scoreSite(c, e)
			hits++
		}
	}
	o.poss.mu.Unlock()
	o.placement.Update(func(p *PlacementStats) { p.ProbeCacheHits += uint64(hits) })
	if hits < len(cands) {
		o.probeScores(sessionID, exe, cands, scores)
	}

	// The pure load order's winner, for the redirect counter: did
	// possession overrule it?
	loadWinner := cands[0]
	for _, c := range cands[1:] {
		if c.load < loadWinner.load || (c.load == loadWinner.load && c.name < loadWinner.name) {
			loadWinner = c
		}
	}
	orderScores(scores)
	redirected := scores[0].name != loadWinner.name
	o.placement.Update(func(p *PlacementStats) {
		p.PlacementsScored++
		if redirected {
			p.PlacementsRedirected++
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

	out := into[:0]
	for _, s := range scores {
		out = append(out, s.name)
	}
	return out
}

// probeScores scores, in parallel, each candidate the possession cache
// did not answer (its score has no name yet). The probes write into a
// slice of their own, so that scores, which their goroutines never see,
// can live on the caller's stack.
func (o *OnServe) probeScores(sessionID string, exe *executable, cands []siteLoad, scores []siteScore) {
	probed := make([]siteScore, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		if scores[i].name != "" {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, hit := o.probePossession(sessionID, c.name, exe)
			probed[i] = scoreSite(c, e)
			if hit {
				o.placement.Update(func(p *PlacementStats) { p.ProbeCacheHits++ })
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

// probePossession answers "how much of serviceName's wire is already at
// site?" from the TTL cache when fresh, otherwise through one batched
// HaveChunks probe concurrent callers share. hit reports whether the
// answer came without issuing a new probe (cache or joined flight).
func (o *OnServe) probePossession(sessionID, site string, exe *executable) (possEntry, bool) {
	key := siteKey{exe.service, site}
	led := false
	e, _, _ := o.poss.flights.do(&o.poss.mu, key, func() (possEntry, bool) {
		return o.cachedPossession(key, time.Now())
	}, func() (possEntry, error) {
		led = true
		e := o.probeOnce(sessionID, site, exe)
		o.poss.mu.Lock()
		o.poss.cache[key] = e
		o.poss.mu.Unlock()
		return e, nil
	})
	return e, !led
}

// probeOnce issues one possession probe against site.
func (o *OnServe) probeOnce(sessionID, site string, exe *executable) possEntry {
	now := time.Now()
	cut := exe.wireChunks()
	if cut == nil {
		// Chunk protocol inapplicable: possession unknown, score the site
		// as a full cold transfer of the raw blob.
		size := int64(exe.row.RawSize)
		return possEntry{missing: size, total: size, at: now}
	}
	total := cut.WireBytes
	o.placement.Update(func(p *PlacementStats) { p.ProbesSent++ })
	missing, err := o.parts.Agent.HaveChunks(sessionID, site, cut.Digests())
	if err != nil {
		// Degradation, not failure: the site is scored possession-unknown
		// — the load term plus a full cold transfer — so a dead or
		// stock-protocol server costs it the possession credit but never
		// fails pickSites.
		o.placement.Update(func(p *PlacementStats) { p.ProbeFailures++ })
		return possEntry{missing: total, total: total, at: now}
	}
	var missingBytes int64
	for _, d := range missing {
		missingBytes += int64(cut.Sizes[d])
	}
	return possEntry{missing: missingBytes, total: total, ok: true, at: now}
}

// notePossession records that site now holds serviceName's full wire
// (a staging just completed there), so the next
// placement credits it without waiting out the probe TTL.
func (o *OnServe) notePossession(serviceName, site string, total int64) {
	if !o.cfg.DataAwarePlacement {
		return
	}
	o.poss.mu.Lock()
	o.poss.cache[siteKey{serviceName, site}] = possEntry{missing: 0, total: total, ok: true, at: time.Now()}
	o.poss.mu.Unlock()
}

// forgetPossession drops every cached possession answer for serviceName
// (DeleteService).
func (o *OnServe) forgetPossession(serviceName string) {
	o.poss.mu.Lock()
	for k := range o.poss.cache {
		if k.service == serviceName {
			delete(o.poss.cache, k)
		}
	}
	o.poss.mu.Unlock()
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
