package gridsim

import (
	"bytes"
	"sync"
	"time"

	"repro/internal/jsdl"
	"repro/internal/trace"
)

// State is a job's lifecycle state.
type State int

// Job lifecycle. Terminal states are Succeeded and later.
const (
	Queued State = iota
	Running
	Succeeded
	Failed
	Cancelled
	TimedOut
)

// String names the state using classic batch-system vocabulary.
func (s State) String() string {
	switch s {
	case Queued:
		return "QUEUED"
	case Running:
		return "RUNNING"
	case Succeeded:
		return "DONE"
	case Failed:
		return "FAILED"
	case Cancelled:
		return "CANCELLED"
	case TimedOut:
		return "TIMEOUT"
	}
	return "UNKNOWN"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= Succeeded }

// MaxJobOutputBytes is the default bound on the total output artifacts
// one job may write; sites may override it via SiteConfig.MaxJobOutput.
const MaxJobOutputBytes = 64 << 20

// Job is one unit of work inside a site.
type Job struct {
	// ID is globally unique: "<site>:job-<n>".
	ID string
	// Desc is the submitted description (normalized).
	Desc jsdl.Description
	// Site is the executing site's name.
	Site string
	// Submitter keys the event feed the job publishes to (EventBus): the
	// gatekeeper passes the fingerprint of the proxy that signed the
	// submission; "" for a job submitted in process. Set before the job is
	// enqueued and never changed.
	Submitter string

	mu        sync.Mutex
	state     State
	exitMsg   string
	stdout    bytes.Buffer
	stdoutVer uint64
	outputs   map[string][]byte
	outBytes  int
	outQuota  int
	submitted time.Time
	started   time.Time
	ended     time.Time

	// Tracing (nil when the submission was untraced): queueSpan covers
	// Queued->Running, runSpan covers Running->terminal, both children of
	// the submitter's context at exact scheduler timestamps.
	tracer    *trace.Tracer
	traceCtx  trace.SpanContext
	queueSpan *trace.Span
	runSpan   *trace.Span

	// done closes when the job reaches a terminal state.
	done chan struct{}
	// cancel closes to stop the interpreter (cancellation, walltime).
	cancel    chan struct{}
	cancelled bool
}

func newJob(id string, desc jsdl.Description, site string, now time.Time, outQuota int) *Job {
	if outQuota <= 0 {
		outQuota = MaxJobOutputBytes
	}
	return &Job{
		ID:        id,
		Desc:      desc,
		Site:      site,
		state:     Queued,
		outputs:   make(map[string][]byte),
		outQuota:  outQuota,
		submitted: now,
		done:      make(chan struct{}),
		cancel:    make(chan struct{}),
	}
}

// initTrace opens the queue-phase span. Called once, before the job is
// visible to the scheduler.
func (j *Job) initTrace(t *trace.Tracer, tc trace.SpanContext, now time.Time) {
	j.tracer = t
	j.traceCtx = tc
	j.queueSpan = t.StartSpanAt("job.queue", tc, now)
	j.queueSpan.Set("job_id", j.ID)
	j.queueSpan.Set("site", j.Site)
	j.queueSpan.SetInt("cpus", int64(j.Desc.CPUs))
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ExitMessage returns the failure/cancellation message, if any.
func (j *Job) ExitMessage() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.exitMsg
}

// Stdout returns a snapshot of output produced so far — this is what the
// paper's workaround polls "tentatively" while the job runs.
func (j *Job) Stdout() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stdout.String()
}

// StdoutVersion reports the job's output version: a counter bumped on
// every stdout append. Pollers remember the version they last fetched
// and skip re-fetching an unchanged snapshot (the conditional-output
// extension the paper's tentative poller lacked).
func (j *Job) StdoutVersion() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stdoutVer
}

// StdoutVersioned returns the stdout snapshot together with its version,
// read atomically so a caller can cache the pair.
func (j *Job) StdoutVersioned() (string, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stdout.String(), j.stdoutVer
}

// StdoutWithin is StdoutVersioned for a snapshot of at most max bytes;
// once the output has outgrown max, ok is false and nothing is copied.
func (j *Job) StdoutWithin(max int) (out string, ver uint64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stdout.Len() > max {
		return "", 0, false
	}
	return j.stdout.String(), j.stdoutVer, true
}

// OutputFile returns a named output artifact (nil if absent).
func (j *Job) OutputFile(name string) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := j.outputs[name]
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// OutputNames lists produced artifacts.
func (j *Job) OutputNames() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.outputs))
	for n := range j.outputs {
		out = append(out, n)
	}
	return out
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Times returns (submitted, started, ended); zero values where the event
// has not happened.
func (j *Job) Times() (submitted, started, ended time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.ended
}

// writeStdout appends to the job's stdout stream and returns the new
// output version (unchanged when p is empty).
func (j *Job) writeStdout(p []byte) (n int, ver uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(p) > 0 {
		j.stdoutVer++
	}
	n, err = j.stdout.Write(p)
	return n, j.stdoutVer, err
}

type stdoutWriter struct {
	j *Job
	s *Site
}

func (w stdoutWriter) Write(p []byte) (int, error) {
	n, ver, err := w.j.writeStdout(p)
	if len(p) > 0 && w.s != nil {
		w.s.publishOutput(w.j, ver)
	}
	return n, err
}

// writeOutput stores an output artifact, enforcing the per-job quota.
func (j *Job) writeOutput(name string, data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.outBytes+len(data) > j.outQuota {
		return ErrQuota
	}
	if old, ok := j.outputs[name]; ok {
		j.outBytes -= len(old)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	j.outputs[name] = cp
	j.outBytes += len(cp)
	return nil
}

// markRunning transitions Queued→Running; returns false if the job was
// cancelled while queued.
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.started = now
	j.queueSpan.EndAt(now)
	if j.tracer != nil {
		j.runSpan = j.tracer.StartSpanAt("job.run", j.traceCtx, now)
		j.runSpan.Set("job_id", j.ID)
		j.runSpan.Set("site", j.Site)
	}
	return true
}

// finish transitions to a terminal state exactly once.
func (j *Job) finish(st State, msg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	wasQueued := j.state == Queued
	j.state = st
	j.exitMsg = msg
	j.ended = now
	// Close whichever lifecycle span is still open; non-success ends it
	// with error status so cancelled/killed jobs never leak an "ok" tree.
	sp := j.runSpan
	if wasQueued {
		sp = j.queueSpan
	}
	if st != Succeeded {
		sp.Error(msg)
	}
	sp.Set("state", st.String())
	sp.EndAt(now)
	close(j.done)
	return true
}

// requestCancel closes the interpreter's cancel channel once.
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.cancelled {
		j.cancelled = true
		close(j.cancel)
	}
}
