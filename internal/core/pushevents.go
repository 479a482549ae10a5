package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gram"
)

// EventStats counts the push-collection path's work (Config.PushEvents):
// how many event streams were opened, what flowed over them, and how
// often the collector had to fall back down the ladder (push → poll hub).
type EventStats struct {
	// StreamsOpened counts successful /gram/events connections
	// (including reconnects).
	StreamsOpened uint64 `json:"streams_opened"`
	// EventsDelivered counts the state/output frames the streams carried:
	// routed to an invocation, stashed for one about to register, or
	// discarded as late news of one already finished.
	EventsDelivered uint64 `json:"events_delivered"`
	// Heartbeats counts keepalive frames received.
	Heartbeats uint64 `json:"heartbeats"`
	// Reconnects counts connections after the first per session worker.
	Reconnects uint64 `json:"reconnects"`
	// ResumedFromCursor counts reconnects that presented a Last-Event-ID
	// cursor (so the server replayed the missed window).
	ResumedFromCursor uint64 `json:"resumed_from_cursor"`
	// FallbacksToPoll counts in-flight invocations re-registered with the
	// poll hub after the push channel died or was absent.
	FallbacksToPoll uint64 `json:"fallbacks_to_poll"`
}

// eventCounters is the mutable, atomically updated form.
type eventCounters struct {
	streamsOpened     atomic.Uint64
	eventsDelivered   atomic.Uint64
	heartbeats        atomic.Uint64
	reconnects        atomic.Uint64
	resumedFromCursor atomic.Uint64
	fallbacksToPoll   atomic.Uint64
}

// EventStats snapshots the push-path counters.
func (o *OnServe) EventStats() EventStats {
	return EventStats{
		StreamsOpened:     o.push.streamsOpened.Load(),
		EventsDelivered:   o.push.eventsDelivered.Load(),
		Heartbeats:        o.push.heartbeats.Load(),
		Reconnects:        o.push.reconnects.Load(),
		ResumedFromCursor: o.push.resumedFromCursor.Load(),
		FallbacksToPoll:   o.push.fallbacksToPoll.Load(),
	}
}

// maxConnectAttempts bounds consecutive failed stream connects before a
// worker abandons push and hands its jobs to the poll hub.
const maxConnectAttempts = 3

// maxServeStrikes bounds consecutive connections that died without
// delivering a single frame (heartbeat-timeout or instant close) before
// falling back — one flaky drop is retried, a dead server is not.
const maxServeStrikes = 2

// maxPendingEvents caps the stash of events for jobs whose registration
// has not landed yet (latest event per job wins). A stream carries only
// its own session's jobs, so the stash holds in-flight submits and sits
// near empty; if it ever fills, the oldest entry makes room — the newest
// is by construction the in-flight submit's.
const maxPendingEvents = 4096

// maxReapedJobs is how many finished jobs a worker remembers in order to
// discard their late frames. Such a frame was published before its job
// was reaped, so it is among the next frames to arrive: one stream
// buffer's worth of recent reaps covers them, and a frame that misses
// the memory is merely stashed until the stash's bound evicts it.
const maxReapedJobs = 1024

// eventCollector is the push-based replacement for the poll hub's
// periodic batches (Config.PushEvents): one long-lived /gram/events
// stream per session carries the transitions of every job submitted
// under that session, and the stdout snapshot with them while it is
// small, so steady-state status RPCs and output fetches drop to zero and
// detection latency is bounded by delivery, not the poll interval. The
// ladder degrades gracefully: a stock
// gatekeeper (404 on /gram/events) or a dead stream re-registers every
// in-flight invocation with the poll hub the collector owns as its
// fallback rung.
type eventCollector struct {
	o   *OnServe
	hub *pollHub

	mu      sync.Mutex
	workers map[string]*eventWorker // sessionID -> stream worker
	// unsupported latches once the gatekeeper answers 404: every later
	// registration goes straight to the poll hub.
	unsupported bool
}

// eventWorker owns one session's stream: the connect/reconnect loop,
// the cursor, and the set of in-flight invocations events route to.
//
// Lifetime: a worker lives as long as its session is the one core would
// hand its owner's next invocation (the session cache's entry, inside its
// lifetime) and retires once it is not and no job is registered. So a
// cached session keeps one stream across invocations — the next one costs
// no reconnect, replay or bootstrap status RPC — and a session nobody
// will submit under again holds no stream and no goroutine. There is no
// linger timer: the check runs after every frame, and an idle stream's
// next frame is a heartbeat.
type eventWorker struct {
	ec        *eventCollector
	owner     string
	sessionID string

	mu   sync.Mutex
	jobs map[string]*collectJob // jobID -> entry
	// pending stashes the latest event per job that arrived (via replay
	// or a publish racing the submit reply) before its invocation was
	// added; register applies it immediately. Bounded by maxPendingEvents,
	// oldest (lowest n) evicted first.
	pending map[string]pendingEvent
	stashed uint64 // pending entries ever stashed; orders them
	// reaped remembers the jobs finished most recently, so that their late
	// frames are not mistaken for a registration yet to come.
	reaped reapedJobs
	// stopped latches when the worker retired or fell back; a register
	// that observes it retries against a fresh worker.
	stopped bool

	// cursor is the last state/output frame ID seen; reconnects resume
	// from it so no transition is lost across a drop.
	cursor atomic.Uint64
}

// pendingEvent is one stashed event and its arrival rank.
type pendingEvent struct {
	ev gram.EventData
	n  uint64
}

// reapedJobs is a bounded memory of job IDs: adding one beyond
// maxReapedJobs forgets the oldest.
type reapedJobs struct {
	ring []string // grows to maxReapedJobs, then wraps at next
	next int
	set  map[string]struct{}
}

func (r *reapedJobs) add(jobID string) {
	if r.set == nil {
		r.set = make(map[string]struct{})
	}
	if len(r.ring) < maxReapedJobs {
		r.ring = append(r.ring, jobID)
	} else {
		delete(r.set, r.ring[r.next])
		r.ring[r.next] = jobID
		r.next = (r.next + 1) % maxReapedJobs
	}
	r.set[jobID] = struct{}{}
}

func (r *reapedJobs) has(jobID string) bool {
	_, ok := r.set[jobID]
	return ok
}

// register hands a freshly submitted invocation to its session's stream
// worker (starting one if needed). Against a known-stock gatekeeper it
// delegates to the poll hub directly.
func (ec *eventCollector) register(inv *Invocation) {
	for {
		ec.mu.Lock()
		if ec.unsupported {
			ec.mu.Unlock()
			ec.hub.register(inv)
			return
		}
		w := ec.workers[inv.sessionID]
		if w == nil {
			w = &eventWorker{
				ec:        ec,
				owner:     inv.User,
				sessionID: inv.sessionID,
				jobs:      make(map[string]*collectJob),
				pending:   make(map[string]pendingEvent),
			}
			ec.workers[inv.sessionID] = w
			go w.run()
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
		pend, havePend := w.pending[inv.JobID]
		if havePend {
			delete(w.pending, inv.JobID)
		}
		w.mu.Unlock()
		ec.mu.Unlock()
		if havePend {
			// The job's events outran its registration (replay on a fresh
			// stream, or publish racing the submit reply): apply the latest
			// one now so a terminal state is never lost.
			w.apply(j, pend.ev)
		}
		return
	}
}

// run is the worker's connect/serve/reconnect loop. Connection failures
// and zero-frame connections strike toward fallback; a healthy stream
// resets the strikes. The loop exits when the worker retires (see
// eventWorker) or falls back.
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
				// Stock gatekeeper: no event endpoint, ever. Latch and
				// re-register everything with the poll hub.
				w.ec.mu.Lock()
				w.ec.unsupported = true
				w.ec.mu.Unlock()
				w.fallback()
				return
			}
			attempts++
			if attempts >= maxConnectAttempts {
				w.fallback()
				return
			}
			o.clock.Sleep(o.cfg.PollInterval)
			continue
		}
		attempts = 0
		o.push.streamsOpened.Add(1)
		if !first {
			o.push.reconnects.Add(1)
			if cursor > 0 {
				o.push.resumedFromCursor.Add(1)
			}
		}
		first = false
		if cursor == 0 {
			// No cursor means no replay guarantee beyond the server's
			// retained ring: fetch authoritative state once.
			w.syncAll()
		}
		frames := w.serve(es)
		if w.tryStop() {
			return
		}
		if frames == 0 {
			strikes++
			if strikes >= maxServeStrikes {
				w.fallback()
				return
			}
		} else {
			strikes = 0
		}
	}
}

// serve consumes one stream until it dies (error, heartbeat timeout) or
// the worker may retire; it returns how many frames arrived. A heartbeat
// monitor severs the stream when it has been silent for over three
// announced intervals.
func (w *eventWorker) serve(es *gram.EventStream) (frames int) {
	o := w.ec.o
	var lastFrame atomic.Int64
	lastFrame.Store(o.clock.Now().UnixNano())
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-o.clock.After(es.Heartbeat):
			}
			if o.clock.Now().UnixNano()-lastFrame.Load() > 3*int64(es.Heartbeat) {
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
		lastFrame.Store(o.clock.Now().UnixNano())
		switch f.Event {
		case gram.EventHeartbeat:
			o.push.heartbeats.Add(1)
		case gram.EventResync:
			// The server's replay window (or our subscriber buffer) lost
			// events: re-fetch authoritative state, then keep streaming.
			w.syncAll()
		case gram.EventState, gram.EventOutput:
			if f.ID > w.cursor.Load() {
				w.cursor.Store(f.ID)
			}
			ev, err := gram.DecodeEventData(f.Data)
			if err != nil || ev.JobID == "" {
				// Malformed frame: the stream framing still holds, but this
				// event's content is lost — resync rather than guess.
				w.syncAll()
				continue
			}
			o.push.eventsDelivered.Add(1)
			w.processEvent(ev)
		}
		if w.retirable() {
			return frames
		}
	}
}

// retirable is the lifetime rule (see eventWorker): no registered job, and
// a session core will not submit under again. A stash entry does not keep
// a worker: its submit registers with a fresh worker, whose bootstrap
// resync reads the job's state.
func (w *eventWorker) retirable() bool {
	w.mu.Lock()
	idle := len(w.jobs) == 0
	w.mu.Unlock()
	if !idle {
		return false
	}
	id, cached := w.ec.o.cachedSession(w.owner)
	return !cached || id != w.sessionID
}

// tryStop retires the worker (removing it from the collector) if it still
// is retirable, so a session nobody submits under holds no stream and
// leaks no goroutine — the same discipline as the poll hub's lazy shards.
// Returns false if the session is current or jobs arrived concurrently.
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
	w.stopped = true
	if w.ec.workers[w.sessionID] == w {
		delete(w.ec.workers, w.sessionID)
	}
	return true
}

// fallback retires the worker and hands every in-flight job to the poll
// hub as it is — armed watchdog and output cursor intact, so no terminal
// state is lost and no kill timer doubled.
func (w *eventWorker) fallback() {
	w.ec.mu.Lock()
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		w.ec.mu.Unlock()
		return
	}
	w.stopped = true
	if w.ec.workers[w.sessionID] == w {
		delete(w.ec.workers, w.sessionID)
	}
	jobs := w.jobs
	w.jobs = make(map[string]*collectJob)
	w.pending = nil
	w.mu.Unlock()
	w.ec.mu.Unlock()
	for _, j := range jobs {
		if j.inv.State().Terminal() {
			j.wd.Stop()
			continue
		}
		w.ec.o.push.fallbacksToPoll.Add(1)
		w.ec.hub.adopt(j)
	}
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

// processEvent routes one streamed event to its invocation. An event for
// a job that has not registered yet is stashed for its registration; one
// for a job already reaped is late news and dropped.
func (w *eventWorker) processEvent(ev gram.EventData) {
	w.mu.Lock()
	j := w.jobs[ev.JobID]
	if j == nil && !w.stopped && !w.reaped.has(ev.JobID) {
		w.stashLocked(ev)
	}
	w.mu.Unlock()
	if j != nil {
		w.apply(j, ev)
	}
}

// stashLocked keeps ev as its job's latest event (the stream is in order).
// A full stash never refuses it: the entry stashed longest ago goes.
func (w *eventWorker) stashLocked(ev gram.EventData) {
	if _, held := w.pending[ev.JobID]; !held && len(w.pending) >= maxPendingEvents {
		oldest, rank := "", w.stashed+1
		for id, p := range w.pending {
			if p.n < rank {
				oldest, rank = id, p.n
			}
		}
		delete(w.pending, oldest)
	}
	w.stashed++
	w.pending[ev.JobID] = pendingEvent{ev: ev, n: w.stashed}
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
		ps.SetInt("delivery_us", o.clock.Now().Sub(time.Unix(0, ev.AtUnixNano)).Microseconds())
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
// The watchdog bounds the retries.
func (w *eventWorker) finishWhenFetchable(j *collectJob, ev gram.EventData) {
	o := w.ec.o
	for {
		o.clock.Sleep(o.cfg.PollInterval)
		if j.inv.State().Terminal() || o.observe(j, ev, false, nil) {
			w.reap(j)
			return
		}
	}
}

// reap drops a terminal invocation's entry, remembering the job so its
// late frames are dropped too, and stops its watchdog.
func (w *eventWorker) reap(j *collectJob) {
	j.wd.Stop()
	w.mu.Lock()
	if w.jobs[j.inv.JobID] == j {
		delete(w.jobs, j.inv.JobID)
		w.reaped.add(j.inv.JobID)
	}
	w.mu.Unlock()
}
