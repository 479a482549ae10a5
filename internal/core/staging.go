package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/gridftp"
	"repro/internal/trace"
)

// stageRetryBackoff is how long the stock upload path waits before its
// single bounded retry of a transiently failed WAN transfer.
const stageRetryBackoff = 500 * time.Millisecond

// StageStats counts the chunked staging data plane's work: what crossed
// the WAN versus what the content-addressed chunk store absorbed.
type StageStats struct {
	// ChunkedUploads is how many stagings went through the chunk
	// protocol (including ones that resumed or fully deduped).
	ChunkedUploads uint64 `json:"chunked_uploads"`
	// ChunksShipped counts chunks that actually crossed the WAN.
	ChunksShipped uint64 `json:"chunks_shipped"`
	// ChunksDeduped counts manifest entries satisfied without a
	// transfer: already at the site (prior version, resumed transfer,
	// sibling service) or repeated within one file.
	ChunksDeduped uint64 `json:"chunks_deduped"`
	// WireBytes is what chunked stagings sent over the WAN; LogicalBytes
	// the file sizes they delivered. WireBytes < LogicalBytes measures
	// the combined dedup + compression win.
	WireBytes    uint64 `json:"wire_bytes"`
	LogicalBytes uint64 `json:"logical_bytes"`
	// Resumes counts chunked uploads that found at least one of their
	// chunks already at the site — a prior transfer's restart marker.
	Resumes uint64 `json:"resumes"`
	// Fallbacks counts chunked stagings that downgraded to a monolithic
	// PUT because the site's server does not speak the chunk protocol.
	Fallbacks uint64 `json:"fallbacks"`
}

// StageStats snapshots the staging data-plane counters.
func (o *OnServe) StageStats() StageStats { return o.chunked.Snapshot() }

// stager is the stage step's memory of staged copies, looked up and
// filled under the lock of the flights that coalesce the fills.
type stager interface {
	// staged reports whether any site holds a recorded copy of service's
	// executable.
	staged(service string) bool
	// recorded reports whether site holds a copy of service's executable
	// and, if not, a sibling that does.
	recorded(service, site string) (here bool, sibling string)
	// fill stages exe at site, which holds no recorded copy.
	fill(sessionID string, exe *executable, site, sibling string, sp *trace.Span) (checksum string, err error)
	// forget drops what is recorded of service.
	forget(service string)
}

// records are the staged copies a stager recorded: which site holds
// which checksum of a service's executable.
type records struct {
	mu    sync.Mutex
	sites map[string]map[string]string // service -> site -> staged checksum
}

func (r *records) staged(service string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sites[service]) > 0
}

func (r *records) recorded(service, site string) (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sites := r.sites[service]
	if sites[site] != "" {
		return true, ""
	}
	return false, replicaSource(sites)
}

// record notes that site holds service's executable with checksum.
func (r *records) record(service, site, checksum string) {
	r.mu.Lock()
	if r.sites[service] == nil {
		r.sites[service] = make(map[string]string)
	}
	r.sites[service][site] = checksum
	r.mu.Unlock()
}

func (r *records) forget(service string) {
	r.mu.Lock()
	delete(r.sites, service)
	r.mu.Unlock()
}

// uploadEach is the paper's stager, whose files "will even be reloaded
// when executed a 2nd time": every staging crosses the WAN, and none is
// recorded. A transient failure is retried once, after a short backoff,
// from the first byte; session faults (Invoke's to retry), definitive
// rejections and a corrupt stored stream are not.
type uploadEach struct {
	o *OnServe
	*records
}

func (u uploadEach) fill(sessionID string, exe *executable, site, _ string, sp *trace.Span) (string, error) {
	exe.fetch()
	var checksum string
	file, err := u.o.wire.file(exe)
	if err == nil {
		checksum, err = u.o.wire.send(sessionID, exe, file, site, sp)
		if err != nil && retryableStageErr(err) {
			u.o.submit.Update(func(st *SubmitStats) { st.UploadRetries++ })
			sp.Set("retried", "true")
			time.Sleep(stageRetryBackoff)
			checksum, err = u.o.wire.send(sessionID, exe, file, site, sp)
		}
	}
	if err != nil {
		return "", fmt.Errorf("onserve: stage executable: %w", err)
	}
	return checksum, nil
}

// stagingCache records each copy it stages, and pulls a sibling's copy
// across by a GridFTP third-party transfer, without re-crossing the
// appliance's WAN link.
type stagingCache struct{ uploadEach }

// replicaSource picks the site a staged replica is pulled from, out of
// the sites the staging cache records for one service. The smallest name
// wins so the choice is deterministic (map iteration order is not), which
// keeps replication fan-out stable and testable.
func replicaSource(sites map[string]string) string {
	best := ""
	for site := range sites {
		if best == "" || site < best {
			best = site
		}
	}
	return best
}

func (c *stagingCache) fill(sessionID string, exe *executable, site, sibling string, sp *trace.Span) (sum string, err error) {
	if sibling != "" {
		sp.Set("replicated_from", sibling)
		sum, err = c.o.parts.Agent.WithTrace(sp.Context()).Replicate(sessionID, sibling, site, exe.staged)
		// A session fault would doom an upload too: Invoke retries it.
		// Any other failure falls through to an upload.
		if isSessionFault(err) {
			return "", fmt.Errorf("onserve: stage executable: %w", err)
		}
	}
	if sibling == "" || err != nil {
		sum, err = c.uploadEach.fill(sessionID, exe, site, "", sp)
	}
	if err == nil {
		c.record(exe.service, site, sum)
	}
	return sum, err
}

// stageExecutable is the stage step: it makes sure site holds the
// service's executable, a recorded copy answered before any flight.
// Coalesced, a staging that arrives while another of its key is in flight
// takes that one's outcome; if the leader fails, one waiter takes over.
func (o *OnServe) stageExecutable(sessionID string, exe *executable, site string, sp *trace.Span) error {
	here, sibling := false, ""
	_, joined, err := o.stagingFlights.do(&o.mu, siteKey{exe.service, site}, func() (struct{}, bool) {
		here, sibling = o.stage.recorded(exe.service, site)
		return struct{}{}, here
	}, func() (struct{}, error) {
		_, err := o.stage.fill(sessionID, exe, site, sibling, sp)
		return struct{}{}, err
	})
	if here {
		sp.Set("cache", "hit")
	}
	if joined {
		o.submit.Update(func(st *SubmitStats) { st.UploadsCoalesced++ })
		sp.Set("coalesced", "true")
	}
	return err
}

// wire is how a staging's bytes cross the WAN, one attempt at a time;
// the stage span's wire attribute names it.
type wire interface {
	// file describes exe as the wire ships it.
	file(exe *executable) (gridftp.File, error)
	send(sessionID string, exe *executable, file gridftp.File, site string, sp *trace.Span) (checksum string, err error)
}

// putWire is the paper's: one monolithic PUT of the raw file.
type putWire struct{ o *OnServe }

func (putWire) file(exe *executable) (gridftp.File, error) { return exe.file() }

func (w putWire) send(sessionID string, exe *executable, file gridftp.File, site string, sp *trace.Span) (string, error) {
	w.o.submit.Update(func(st *SubmitStats) { st.Uploads++ })
	sp.Set("wire", "stream")
	return w.o.parts.Agent.WithTrace(sp.Context()).UploadFile(sessionID, site, exe.staged, file)
}

// chunkWire is the chunked, content-addressed GridFTP protocol: only the
// chunks a site lacks cross the WAN, a killed transfer resumes, and a
// stock server takes the PUT. With gzip the chunks are cut from the
// stored gzip stream (fewer bytes; an edit perturbs the rest of it).
type chunkWire struct {
	o    *OnServe
	gzip bool
}

// file is exe's raw file, with the stored gzip stream riding along when
// the chunks are cut from it.
func (w *chunkWire) file(exe *executable) (gridftp.File, error) {
	file, err := exe.file()
	if w.gzip {
		file.Gzip = exe.row.Gzip
	}
	return file, err
}

func (w *chunkWire) send(sessionID string, exe *executable, file gridftp.File, site string, sp *trace.Span) (string, error) {
	o := w.o
	o.submit.Update(func(st *SubmitStats) { st.Uploads++ })
	stats, err := o.parts.Agent.WithTrace(sp.Context()).UploadChunked(sessionID, site, exe.staged, file)
	if err != nil {
		return "", err
	}
	o.chunked.Update(func(st *StageStats) {
		st.ChunkedUploads++
		st.ChunksShipped += uint64(stats.ChunksShipped)
		st.ChunksDeduped += uint64(stats.ChunksDeduped)
		st.WireBytes += uint64(stats.WireBytes)
		st.LogicalBytes += uint64(stats.LogicalBytes)
		if stats.Resumed {
			st.Resumes++
		}
		if stats.Fallback {
			st.Fallbacks++
		}
	})
	sp.Set("wire", stats.Wire())
	sp.SetInt("wire_bytes", stats.WireBytes)
	sp.SetInt("chunks_shipped", int64(stats.ChunksShipped))
	sp.SetInt("chunks_deduped", int64(stats.ChunksDeduped))
	if !stats.Fallback {
		// The site's chunk store now holds the full wire: credit it in the
		// possession cache without waiting out the probe TTL. A fallback
		// PUT leaves the chunk store untouched, so it earns no credit.
		o.poss.note(exe.service, site, stats.LogicalBytes)
	}
	return stats.Checksum, nil
}

// retryableStageErr reports whether a failed transfer is worth the one
// bounded retry: transient transport trouble is, a session fault, the
// server's definitive rejection (its own 400 checksum mismatch among them)
// or a corrupt stored row — which a second read finds corrupt again — is
// not. A checksum mismatch the client detects itself in the site's reply
// is retried: both transfer paths are idempotent.
func retryableStageErr(err error) bool {
	if err == nil || isSessionFault(err) {
		return false
	}
	if errors.Is(err, cyberaide.ErrUnknownSite) ||
		errors.Is(err, blobdb.ErrCorrupt) ||
		errors.Is(err, gridftp.ErrDenied) ||
		errors.Is(err, gridftp.ErrBadInput) ||
		errors.Is(err, gridftp.ErrNoFile) {
		return false
	}
	return true
}
