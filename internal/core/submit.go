package core

// SubmitStats counts the work the submission front-end performs on the
// way *into* the grid — the twin of CollectorStats for the output side.
// The submit ablation reads it to compare WAN uploads, gatekeeper
// submit round-trips and scheduler-statistics fetches across variants.
type SubmitStats struct {
	// Uploads is the number of executable stagings that crossed the WAN
	// (Agent.Upload calls).
	Uploads uint64 `json:"uploads"`
	// UploadsCoalesced counts stagings served by another invocation's
	// in-flight upload instead of their own.
	UploadsCoalesced uint64 `json:"uploads_coalesced"`
	// UploadRetries counts transfers that failed transiently and were
	// retried once after a backoff (each retry is also in Uploads).
	UploadRetries uint64 `json:"upload_retries"`
	// SubmitRPCs is the number of gatekeeper submit round-trips: one per
	// candidate site an invocation tried.
	SubmitRPCs uint64 `json:"submit_rpcs"`
	// StatsRPCs is the number of scheduler-statistics fetches that went
	// to the gatekeeper.
	StatsRPCs uint64 `json:"stats_rpcs"`
	// StatsCollapsed counts pickSites callers that shared an in-flight
	// statistics fetch instead of issuing their own.
	StatsCollapsed uint64 `json:"stats_collapsed"`
}

// SubmitStats snapshots the submission-path counters.
func (o *OnServe) SubmitStats() SubmitStats { return o.submit.Snapshot() }
