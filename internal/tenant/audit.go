package tenant

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/jsonwarm"
)

// AuditTable is the blobdb table audit records persist into when
// Config.Audit.Persist is set.
const AuditTable = "tenant_audit"

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(Record{}) }

// Record is one audited action. Every upload/invoke/cancel/delete that
// reaches the admission pipeline produces exactly one record: denials
// are written at denial time, admitted actions when the handler
// finishes, so outcome and latency are final values, never updates.
type Record struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Owner   string    `json:"owner"`
	Verb    string    `json:"verb"`
	Service string    `json:"service,omitempty"`
	// Outcome is ok | error | denied; Code classifies non-ok outcomes
	// (unauthorized, forbidden, rate_limited, quota_exceeded, or the
	// handler's error class).
	Outcome string `json:"outcome"`
	Code    string `json:"code,omitempty"`
	Ticket  string `json:"ticket,omitempty"`
	// TraceID links the record to its tenant.admit span (and, for
	// invocations, the whole invoke trace) in /api/trace.
	TraceID string `json:"trace_id,omitempty"`
	// WaitMS is time spent queued for a quota slot; LatencyMS spans
	// admission start to handler finish (denials: admission start to
	// denial).
	WaitMS    float64 `json:"wait_ms"`
	LatencyMS float64 `json:"latency_ms"`
}

// auditLog is a bounded append-only ring. Overflow evicts the oldest
// record and counts the drop (globally and against the evicted
// record's owner), so readers can tell "quiet system" from "ring too
// small". Queries return newest-first.
type auditLog struct {
	mu      sync.Mutex
	buf     []Record
	start   int // index of oldest record
	n       int // live records
	seq     uint64
	dropped uint64
	db      *blobdb.DB // optional persistence
}

func newAuditLog(size int, db *blobdb.DB) *auditLog {
	if size <= 0 {
		size = 4096
	}
	return &auditLog{buf: make([]Record, size), db: db}
}

// append stamps and stores the record. It returns the owner of a
// record evicted by overflow ("" when nothing dropped) so the caller
// can charge the drop to the right tenant's counters.
func (l *auditLog) append(r Record) (droppedOwner string, dropped bool) {
	l.mu.Lock()
	l.seq++
	r.Seq = l.seq
	r.Time = time.Now()
	if l.n == len(l.buf) {
		droppedOwner = l.buf[l.start].Owner
		dropped = true
		l.dropped++
		l.start = (l.start + 1) % len(l.buf)
		l.n--
	}
	l.buf[(l.start+l.n)%len(l.buf)] = r
	l.n++
	db := l.db
	l.mu.Unlock()
	if db != nil {
		// Best-effort durability outside the lock: the in-memory ring
		// is the source of truth for /api/audit; blobdb is the archive.
		if blob, err := json.Marshal(r); err == nil {
			_ = db.Table(AuditTable).Put(fmt.Sprintf("%016d", r.Seq), map[string]string{
				"owner": r.Owner, "verb": r.Verb, "outcome": r.Outcome,
			}, blob)
		}
	}
	return droppedOwner, dropped
}

// query returns up to n records, newest first, optionally filtered by
// owner ("" = all owners).
func (l *auditLog) query(owner string, n int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Record, 0, n)
	for i := l.n - 1; i >= 0 && len(out) < n; i-- {
		r := l.buf[(l.start+i)%len(l.buf)]
		if owner != "" && r.Owner != owner {
			continue
		}
		out = append(out, r)
	}
	return out
}

// counts reports how many records were appended (each took a sequence
// number) and how many overflow has evicted.
func (l *auditLog) counts() (appended, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.dropped
}
