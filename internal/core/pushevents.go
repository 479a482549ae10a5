package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gram"
)

// EventStats counts the push-collection path's work: how many event
// streams were opened, what flowed over them, and how often the collector
// had to fall back down the ladder (push → poll).
type EventStats struct {
	// StreamsOpened counts successful /gram/events connections
	// (including reconnects).
	StreamsOpened uint64 `json:"streams_opened"`
	// EventsDelivered counts the state/output frames the streams carried:
	// routed to an invocation, or dropped as news of a job the worker does
	// not hold (one already finished).
	EventsDelivered uint64 `json:"events_delivered"`
	// Heartbeats counts keepalive frames received.
	Heartbeats uint64 `json:"heartbeats"`
	// Reconnects counts connections after the first per session worker.
	Reconnects uint64 `json:"reconnects"`
	// ResumedFromCursor counts reconnects that presented a Last-Event-ID
	// cursor (so the server replayed the missed window).
	ResumedFromCursor uint64 `json:"resumed_from_cursor"`
	// FallbacksToPoll counts in-flight invocations whose stream worker
	// switched to polling them after its stream died or was absent.
	FallbacksToPoll uint64 `json:"fallbacks_to_poll"`
}

// EventStats snapshots the push-path counters.
func (o *OnServe) EventStats() EventStats { return o.push.Snapshot() }

// maxConnectAttempts bounds consecutive failed stream connects before a
// worker abandons push and polls its jobs instead.
const maxConnectAttempts = 3

// maxServeStrikes bounds consecutive connections that died without
// delivering a single frame (heartbeat-timeout or instant close) before
// falling back — one flaky drop is retried, a dead server is not.
const maxServeStrikes = 2

// eventCollector is the push-based replacement for periodic polling:
// one long-lived /gram/events stream per session carries the
// transitions of every job submitted under that session, and the stdout
// snapshot with them while it is small, so steady-state status RPCs and
// output fetches drop to zero and detection latency is bounded by
// delivery, not the poll interval. The ladder degrades in place: a
// worker whose stream is dead, or whose gatekeeper is stock (404 on
// /gram/events), polls its own jobs (see poll).
type eventCollector struct {
	o *OnServe

	mu      sync.Mutex
	workers map[string]*eventWorker // sessionID -> stream worker
	// unsupported latches once the gatekeeper answers 404: every later
	// worker polls from the start.
	unsupported bool
}

// eventWorker owns one session's stream: the connect/reconnect loop,
// the cursor, and the set of in-flight invocations events route to,
// each under its job's name from before its submit.
//
// Lifetime: a worker lives as long as its session is the one the
// authenticate step would hand its owner's next invocation, and retires
// once it is not and no job is registered. So a cached session keeps
// one stream across invocations — the next one costs no reconnect,
// replay or bootstrap status RPC — and a session nobody will submit
// under again holds no stream and no goroutine. There is no linger
// timer: the check runs after every frame, and an idle stream's next
// frame is a heartbeat. A worker that polls retires once its last job
// does.
type eventWorker struct {
	ec        *eventCollector
	owner     string
	sessionID string

	started bool // under ec.mu: its loop runs, since a submit succeeded

	mu   sync.Mutex
	jobs map[string]*collectJob // jobID -> entry
	// stopped latches when the worker retired; a register that observes
	// it retries against a fresh worker.
	stopped bool

	// cursor is the last state/output frame ID seen; reconnects resume
	// from it so no transition is lost across a drop.
	cursor atomic.Uint64
}

// register adds inv, watchdog armed, to its session's worker (made if
// there is none) before the submit. The worker's loop (a stream, or polls
// against a known-stock gatekeeper) starts once a submit succeeded; a
// failed one takes its job out, and a worker that never started.
func (ec *eventCollector) register(inv *Invocation) func(bool) {
	for {
		ec.mu.Lock()
		w := ec.workers[inv.sessionID]
		if w == nil {
			w = &eventWorker{ec: ec, owner: inv.User, sessionID: inv.sessionID, jobs: make(map[string]*collectJob)}
			ec.workers[inv.sessionID] = w
		}
		w.mu.Lock()
		if w.stopped {
			// Lost a race with retirement/fallback; the map entry is gone —
			// retry against whatever register finds next.
			w.mu.Unlock()
			ec.mu.Unlock()
			continue
		}
		j := &collectJob{inv: inv, wd: ec.o.armWatchdog(inv)}
		w.jobs[inv.JobID] = j
		w.mu.Unlock()
		ec.mu.Unlock()
		return func(ok bool) {
			ec.mu.Lock()
			defer ec.mu.Unlock()
			switch {
			case ok && !w.started:
				w.started = true
				if ec.unsupported {
					go w.poll()
				} else {
					go w.run()
				}
			case !ok:
				j.wd.Stop()
				w.mu.Lock()
				delete(w.jobs, inv.JobID)
				if !w.started && len(w.jobs) == 0 {
					w.retireLocked()
				}
				w.mu.Unlock()
			}
		}
	}
}

// run is the worker's connect/serve/reconnect loop. Connection failures
// and zero-frame connections strike toward fallback; a healthy stream
// resets the strikes. The loop exits when the worker retires (see
// eventWorker) or, fallen back, has polled its last job.
func (w *eventWorker) run() {
	o := w.ec.o
	attempts := 0
	strikes := 0
	first := true
	for {
		cursor := w.cursor.Load()
		es, err := o.parts.Agent.Events(w.sessionID, cursor)
		if err != nil {
			if errors.Is(err, gram.ErrNoEvents) {
				// Stock gatekeeper: no event endpoint, ever. Latch, and
				// stay the session's worker: its registrations join the
				// polls.
				w.ec.mu.Lock()
				w.ec.unsupported = true
				w.ec.mu.Unlock()
				w.fallback(false)
				return
			}
			attempts++
			if attempts >= maxConnectAttempts {
				w.fallback(true)
				return
			}
			if !o.pause(o.cfg.PollInterval) {
				w.quit()
				return
			}
			continue
		}
		attempts = 0
		o.push.Update(func(e *EventStats) {
			e.StreamsOpened++
			if !first {
				e.Reconnects++
				if cursor > 0 {
					e.ResumedFromCursor++
				}
			}
		})
		first = false
		if cursor == 0 {
			// No cursor means no replay guarantee beyond the server's
			// retained ring: fetch authoritative state once.
			w.syncAll()
		}
		frames := w.serve(es)
		if o.isClosed() {
			w.quit()
			return
		}
		if w.tryStop() {
			return
		}
		if frames == 0 {
			strikes++
			if strikes >= maxServeStrikes {
				w.fallback(true)
				return
			}
		} else {
			strikes = 0
		}
	}
}

// serve consumes one stream until it dies (error, heartbeat timeout,
// Close) or the worker may retire; it returns how many frames arrived. A
// heartbeat monitor severs the stream when it has been silent for over
// three announced intervals, or at Close.
func (w *eventWorker) serve(es *gram.EventStream) (frames int) {
	o := w.ec.o
	var lastFrame atomic.Int64
	lastFrame.Store(time.Now().UnixNano())
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-o.closed:
				es.Close()
				return
			case <-time.After(es.Heartbeat):
			}
			if time.Now().UnixNano()-lastFrame.Load() > 3*int64(es.Heartbeat) {
				es.Close()
				return
			}
		}
	}()
	defer es.Close()
	for {
		f, err := es.Next()
		if err != nil {
			return frames
		}
		frames++
		lastFrame.Store(time.Now().UnixNano())
		switch f.Event {
		case gram.EventHeartbeat:
			o.push.Update(func(e *EventStats) { e.Heartbeats++ })
		case gram.EventResync:
			// The server's replay window (or our subscriber buffer) lost
			// events: re-fetch authoritative state, then keep streaming.
			w.syncAll()
		case gram.EventState, gram.EventOutput:
			if f.ID > w.cursor.Load() {
				w.cursor.Store(f.ID)
			}
			if !w.processFrame(f.Data) {
				// Malformed frame: the stream framing still holds, but this
				// event's content is lost — resync rather than guess.
				w.syncAll()
			}
		}
		if w.retirable() {
			return frames
		}
	}
}

// retirable is the lifetime rule (see eventWorker): no registered job, and
// a session core will not submit under again.
func (w *eventWorker) retirable() bool {
	w.mu.Lock()
	idle := len(w.jobs) == 0
	w.mu.Unlock()
	if !idle {
		return false
	}
	id, cached := w.ec.o.auth.current(w.owner)
	return !cached || id != w.sessionID
}

// tryStop retires the worker if it still is retirable, so a session nobody
// submits under holds no stream and leaks no goroutine. Returns false if
// the session is current or jobs arrived concurrently.
func (w *eventWorker) tryStop() bool {
	// Read before the locks below (core's lock is never taken under them):
	// a session that left the cache does not return to it.
	if !w.retirable() {
		return false
	}
	w.ec.mu.Lock()
	defer w.ec.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.jobs) > 0 {
		return false
	}
	w.retireLocked()
	return true
}

// quit ends the worker at Close: it leaves the collector, and each of its
// jobs ends KILLED, watchdog stopped.
func (w *eventWorker) quit() {
	w.ec.mu.Lock()
	w.mu.Lock()
	w.retireLocked()
	jobs := w.jobs
	w.jobs = nil
	w.mu.Unlock()
	w.ec.mu.Unlock()
	for _, j := range jobs {
		j.wd.Stop()
		j.inv.finish(InvKilled, msgShutDown, time.Now())
	}
}

// retireLocked removes the worker from the collector, so the session's
// next registration starts a fresh one. The caller holds both locks.
func (w *eventWorker) retireLocked() {
	w.stopped = true
	if w.ec.workers[w.sessionID] == w {
		delete(w.ec.workers, w.sessionID)
	}
}

// fallback turns the worker into its session's poller. Every in-flight job
// stays as it is — armed watchdog and output cursor intact — so no
// terminal state is lost and no kill timer doubled. A worker whose stream
// died leaves the collector first, so the next registration opens a fresh
// stream; after a 404 it stays, and registrations join its polls.
func (w *eventWorker) fallback(leave bool) {
	w.ec.mu.Lock()
	w.mu.Lock()
	if leave {
		w.retireLocked()
	}
	var live uint64
	for _, j := range w.jobs {
		if !j.inv.State().Terminal() {
			live++
		}
	}
	w.ec.o.push.Update(func(e *EventStats) { e.FallbacksToPoll += live })
	w.mu.Unlock()
	w.ec.mu.Unlock()
	w.poll()
}

// poll is the worker without a stream: the paper's tentative polling,
// batched. Every PollInterval it reaps its terminal jobs and reads the
// rest in one status-batch round-trip per gram.MaxBatch, handing each
// entry to observe; a terminal job whose final fetch failed is simply seen
// again next tick. It returns once no job is left, or at Close.
func (w *eventWorker) poll() {
	o := w.ec.o
	for {
		if !o.pause(o.cfg.PollInterval) {
			w.quit()
			return
		}
		jobs := w.survivors()
		if len(jobs) == 0 {
			return
		}
		o.statusBatch(w.sessionID, jobs, func(j *collectJob, ev gram.EventData) {
			if j.inv.State().Terminal() {
				return // cancel or watchdog got there between batching and now
			}
			ps := o.parts.Tracing.StartSpan("poll", j.inv.collectCtx())
			ps.Set("batched", "true")
			o.observe(j, ev, true, ps)
		})
	}
}

// survivors reaps the worker's terminal jobs and returns the others. With
// none left the worker retires — under both locks, so a concurrent register
// either added its job first or finds the worker stopped.
func (w *eventWorker) survivors() []*collectJob {
	w.ec.mu.Lock()
	defer w.ec.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	jobs := make([]*collectJob, 0, len(w.jobs))
	for id, j := range w.jobs {
		if j.inv.State().Terminal() {
			j.wd.Stop()
			delete(w.jobs, id)
		} else {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		w.retireLocked()
	}
	return jobs
}

// syncAll fetches authoritative state for every registered job in one
// status-batch round-trip — the resync the push channel falls back on
// when its event history has a gap.
func (w *eventWorker) syncAll() {
	w.mu.Lock()
	jobs := make([]*collectJob, 0, len(w.jobs))
	for _, j := range w.jobs {
		jobs = append(jobs, j)
	}
	w.mu.Unlock()
	if len(jobs) > 0 {
		w.ec.o.statusBatch(w.sessionID, jobs, w.apply)
	}
}

// processFrame decodes one state or output frame and routes it to its
// invocation, or false if the frame is malformed. An event for a job the
// worker does not hold is dropped. The decoder's hook looks the job up
// under the same lock as the routing, once per frame: the event of a job
// the worker holds then shares its invocation's ID, not a copy.
func (w *eventWorker) processFrame(data []byte) bool {
	var (
		j     *collectJob
		asked []byte // the ID the hook looked up
	)
	w.mu.Lock()
	ev, err := gram.DecodeEventData(data, func(id []byte) string {
		if asked, j = id, w.jobs[string(id)]; j != nil {
			return j.inv.JobID
		}
		return ""
	})
	if err != nil || ev.JobID == "" {
		w.mu.Unlock()
		return false
	}
	if string(asked) != ev.JobID { // json.Unmarshal decoded the frame, not the hand walk
		j = w.jobs[ev.JobID]
	}
	w.mu.Unlock()
	w.ec.o.push.Update(func(e *EventStats) { e.EventsDelivered++ })
	if j != nil {
		w.apply(j, ev)
	}
	return true
}

// apply lets observe act on one event — pushed, replayed, or synthesised
// by a resync — and reaps the job once its invocation is terminal.
func (w *eventWorker) apply(j *collectJob, ev gram.EventData) {
	o := w.ec.o
	if j.inv.State().Terminal() {
		// Cancel or watchdog got there between publish and delivery.
		w.reap(j)
		return
	}
	ps := o.parts.Tracing.StartSpan("event", j.inv.collectCtx())
	if ev.AtUnixNano > 0 {
		ps.SetInt("delivery_us", time.Since(time.Unix(0, ev.AtUnixNano)).Microseconds())
	}
	if !o.observe(j, ev, false, ps) {
		// Retry the final fetch off the stream loop.
		go w.finishWhenFetchable(j, ev)
		return
	}
	if j.inv.State().Terminal() {
		w.reap(j)
	}
}

// finishWhenFetchable retries a terminal event whose final output fetch
// failed until it lands (or the invocation went terminal another way).
// The watchdog bounds the retries, and Close ends them.
func (w *eventWorker) finishWhenFetchable(j *collectJob, ev gram.EventData) {
	o := w.ec.o
	for o.pause(o.cfg.PollInterval) {
		if j.inv.State().Terminal() || o.observe(j, ev, false, nil) {
			w.reap(j)
			return
		}
	}
}

// reap drops a terminal invocation's entry, so its late frames are
// dropped too, and stops its watchdog.
func (w *eventWorker) reap(j *collectJob) {
	j.wd.Stop()
	w.mu.Lock()
	if w.jobs[j.inv.JobID] == j {
		delete(w.jobs, j.inv.JobID)
	}
	w.mu.Unlock()
}
