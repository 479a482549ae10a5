package core

import (
	"encoding/json"
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
	// EventsDelivered counts state/output frames routed to an invocation
	// or stashed for one about to register.
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
// has not landed yet (latest event per job wins).
const maxPendingEvents = 4096

// eventCollector is the push-based replacement for the poll hub's
// periodic batches (Config.PushEvents): one long-lived /gram/events
// stream per session carries every job's transitions, so steady-state
// status RPCs drop to zero and detection latency is bounded by delivery,
// not the poll interval. The ladder degrades gracefully: a stock
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
type eventWorker struct {
	ec        *eventCollector
	sessionID string

	mu   sync.Mutex
	jobs map[string]*collectJob // jobID -> entry
	// pending stashes the latest event per job that arrived (via replay
	// or a publish racing registration) before its invocation was added;
	// register applies it immediately.
	pending map[string]gram.EventData
	// stopped latches when the worker drained or fell back; a register
	// that observes it retries against a fresh worker.
	stopped bool

	// cursor is the last state/output frame ID seen; reconnects resume
	// from it so no transition is lost across a drop.
	cursor atomic.Uint64
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
				sessionID: inv.sessionID,
				jobs:      make(map[string]*collectJob),
				pending:   make(map[string]gram.EventData),
			}
			ec.workers[inv.sessionID] = w
			go w.run()
		}
		w.mu.Lock()
		if w.stopped {
			// Lost a race with drain/fallback; the map entry is gone —
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
			w.apply(j, pend)
		}
		return
	}
}

// run is the worker's connect/serve/reconnect loop. Connection failures
// and zero-frame connections strike toward fallback; a healthy stream
// resets the strikes. The loop exits when the worker drains (no jobs, no
// stash) or falls back.
func (w *eventWorker) run() {
	o := w.ec.o
	attempts := 0
	strikes := 0
	first := true
	for {
		cursor := w.cursor.Load()
		es, err := o.cfg.Agent.Events(w.sessionID, cursor)
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
// the worker drains; it returns how many frames arrived. A heartbeat
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
			var ev gram.EventData
			if err := json.Unmarshal(f.Data, &ev); err != nil || ev.JobID == "" {
				// Malformed frame: the stream framing still holds, but this
				// event's content is lost — resync rather than guess.
				w.syncAll()
				continue
			}
			o.push.eventsDelivered.Add(1)
			w.processEvent(ev)
		}
		if w.drained() {
			return frames
		}
	}
}

// drained reports an empty worker (no in-flight jobs, no stash).
func (w *eventWorker) drained() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobs) == 0 && len(w.pending) == 0
}

// tryStop retires a drained worker (removing it from the collector) so
// idle sessions hold no stream and leak no goroutines — the same
// discipline as the poll hub's lazy shards. Returns false if jobs
// remain or arrived concurrently.
func (w *eventWorker) tryStop() bool {
	w.ec.mu.Lock()
	defer w.ec.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.jobs) > 0 || len(w.pending) > 0 {
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
	w.pending = make(map[string]gram.EventData)
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
// a job that has not registered yet is stashed for its registration.
func (w *eventWorker) processEvent(ev gram.EventData) {
	w.mu.Lock()
	j := w.jobs[ev.JobID]
	if j == nil && !w.stopped && len(w.pending) < maxPendingEvents {
		w.pending[ev.JobID] = ev // in-order stream: latest event wins
	}
	w.mu.Unlock()
	if j != nil {
		w.apply(j, ev)
	}
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
	ps := o.cfg.Tracing.StartSpan("event", j.inv.collectCtx())
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

// reap drops a terminal invocation's entry and stops its watchdog.
func (w *eventWorker) reap(j *collectJob) {
	j.wd.Stop()
	w.mu.Lock()
	if w.jobs[j.inv.JobID] == j {
		delete(w.jobs, j.inv.JobID)
	}
	w.mu.Unlock()
}
