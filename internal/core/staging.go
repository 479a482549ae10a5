package core

import (
	"errors"
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
// the WAN versus what the content-addressed chunk store absorbed. All
// zero while Config.ChunkedStaging is off.
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
func (o *OnServe) StageStats() StageStats { return o.stage.Snapshot() }

// uploadExecutable performs stageExecutableOnce's WAN transfer: through
// the chunk protocol when Config.ChunkedStaging is on, as the paper's
// monolithic PUT otherwise. Either way a transiently failed transfer is
// retried exactly once after a short backoff — a blip at second 59 of a
// 60 s WAN upload no longer kills the invocation — and the retry reads
// the executable from the start again. Session faults are never retried
// here (Invoke's invalidate-and-retry owns those), and neither are the
// server's definitive rejections or a stored stream found corrupt.
func (o *OnServe) uploadExecutable(sessionID string, exe *executable, site string, sp *trace.Span) (string, error) {
	exe.fetch()
	file, err := exe.file()
	if err != nil {
		return "", err
	}
	checksum, err := o.uploadOnce(sessionID, exe, file, site, sp)
	if err == nil || !retryableStageErr(err) {
		return checksum, err
	}
	o.submit.Update(func(st *SubmitStats) { st.UploadRetries++ })
	sp.Set("retried", "true")
	time.Sleep(stageRetryBackoff)
	return o.uploadOnce(sessionID, exe, file, site, sp)
}

// uploadOnce is one transfer attempt of file, exe's content. The stage
// span's wire attribute says which way the bytes went.
func (o *OnServe) uploadOnce(sessionID string, exe *executable, file gridftp.File, site string, sp *trace.Span) (string, error) {
	o.submit.Update(func(st *SubmitStats) { st.Uploads++ })
	ag := o.parts.Agent.WithTrace(sp.Context())
	if !o.cfg.ChunkedStaging {
		sp.Set("wire", "stream")
		return ag.UploadFile(sessionID, site, exe.staged, file)
	}
	stats, err := ag.UploadChunked(sessionID, site, exe.staged, file)
	if err != nil {
		return "", err
	}
	o.stage.Update(func(st *StageStats) {
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
		// The site's chunk store now holds the full wire: credit it in
		// the possession cache without waiting out the probe TTL. A
		// fallback PUT leaves the chunk store untouched, so it earns no
		// credit.
		o.notePossession(exe.service, site, stats.LogicalBytes)
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
