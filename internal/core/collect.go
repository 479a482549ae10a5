package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/gram"
	"repro/internal/trace"
)

// CollectorStats counts the work the output-collection path performs,
// whichever collector is active (tentative poller or push, streaming or
// polling). The poll-hub ablation reads it to compare gatekeeper
// round-trips, bytes fetched and disk writes across variants.
type CollectorStats struct {
	// StatusRPCs is the number of gatekeeper status round-trips: one per
	// Status call, one per status-batch chunk.
	StatusRPCs uint64 `json:"status_rpcs"`
	// OutputFetches counts output fetches that returned a body.
	OutputFetches uint64 `json:"output_fetches"`
	// OutputInlined counts snapshots stored straight from an event frame
	// that carried them, at no fetch.
	OutputInlined uint64 `json:"output_inlined"`
	// OutputNotModified counts polls that confirmed an unchanged
	// snapshot without transferring it (version match or 304).
	OutputNotModified uint64 `json:"output_not_modified"`
	// OutputBytes is the total stdout bytes received from the gatekeeper,
	// fetched or inline.
	OutputBytes uint64 `json:"output_bytes"`
	// PollDiskWrites counts local snapshot spills to the appliance disk.
	PollDiskWrites uint64 `json:"poll_disk_writes"`
}

// CollectorStats snapshots the collection-path counters.
func (o *OnServe) CollectorStats() CollectorStats { return o.collector.Snapshot() }

// collector is the collect step: Invoke registers every invocation with
// it, under its job's name, before the submit, and tells it through
// submitted how the submit ended. It keeps nothing of a failed one, and
// owns an accepted one until terminal: it arms the watchdog, stores
// output as it appears, records the end.
type collector interface {
	register(inv *Invocation) (submitted func(ok bool))
}

// collectJob is one in-flight invocation's record in the push collector.
// A stream worker that falls back to polling keeps its jobs as they are:
// same armed watchdog, same output cursor.
type collectJob struct {
	inv *Invocation
	wd  *time.Timer // the watchdog (armWatchdog)

	mu sync.Mutex
	// lastVer is the output version of the snapshot last stored in the
	// invocation; 0 before any output was seen.
	lastVer uint64
}

// advance moves the output cursor to ver and keeps out as the output in
// one step; false means a concurrent fetch already kept that snapshot or
// a newer one, so a look that loses may end the invocation at once.
func (j *collectJob) advance(ver uint64, out string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ver <= j.lastVer {
		return false
	}
	j.lastVer = ver
	j.inv.setOutput(out)
	return true
}

// terminalState maps a GRAM job state onto the invocation state it ends
// in; ok is false while the job is still queued or running.
func terminalState(gramState string) (st InvState, ok bool) {
	switch gramState {
	case "DONE":
		return InvDone, true
	case "FAILED":
		return InvFailed, true
	case "CANCELLED":
		return InvCancelled, true
	case "TIMEOUT":
		return InvKilled, true
	}
	return "", false
}

// finishAs records the terminal state the gatekeeper reported — a DONE job
// carries no message — and, if that ends the invocation, its session.
func (o *OnServe) finishAs(inv *Invocation, st InvState, message string) {
	if st == InvDone {
		message = ""
	}
	if inv.finish(st, message, time.Now()) {
		o.auth.end(inv.User, inv.sessionID, false, nil)
	}
}

// armWatchdog starts the invocation's deadline timer ("a watchdog class,
// that is used to react correctly ... when a process takes too long to
// complete"): a timer, never a parked goroutine, that runs its kill once
// unless stopped first. The verdict is recorded before the grid job is
// cancelled: finish is once-only, so the CANCELLED state that the cancel
// provokes — which the push collector can be told of before Cancel even
// returns — is ignored instead of racing the kill for the final state.
func (o *OnServe) armWatchdog(inv *Invocation) *time.Timer {
	return time.AfterFunc(o.cfg.InvocationTimeout, func() {
		killed := inv.finish(InvKilled, fmt.Sprintf("watchdog: invocation exceeded %v", o.cfg.InvocationTimeout), time.Now())
		o.parts.Agent.Cancel(inv.sessionID, inv.JobID)
		if killed {
			o.auth.end(inv.User, inv.sessionID, false, nil)
		}
	})
}

// spill accounts a kept stdout snapshot, counted by how it arrived —
// fetched from /gram/output or inline in an event frame: the local spill
// is a disk write on the appliance (the periodic peaks of Figs. 6 and 7).
func (o *OnServe) spill(out string, inline bool, ps *trace.Span) {
	o.collector.Update(func(c *CollectorStats) {
		if inline {
			c.OutputInlined++
		} else {
			c.OutputFetches++
		}
		c.OutputBytes += uint64(len(out))
		c.PollDiskWrites++
	})
	o.cfg.Probe.DiskWrite(len(out))
	ps.SetInt("bytes", int64(len(out)))
}

// observe applies one authoritative look at a grid job — an entry of a
// status-batch reply or a pushed event — to its invocation: when the
// output version moved past the stored snapshot, store the new one — the
// event's own when it carries the snapshot inline (a live frame of a small
// output), a conditional fetch otherwise (a status entry, a replayed
// frame, a large output, a gatekeeper that inlines nothing) — then record
// a terminal state. polled marks a look the collector asked for on its own
// cadence: finding the version unmoved is then a confirmed-unchanged
// snapshot (CollectorStats.OutputNotModified), which a pushed transition
// says only when it is the terminal one. ps is the caller's span; only
// informative looks (output stored, or terminal) record it, so sustained
// collection cannot flood the ring.
//
// It returns false for exactly one outcome: the job is terminal but its
// final output could not be fetched. The invocation is left running —
// it must never finish with a stale snapshot — and the caller retries by
// its own policy (polling: the next tick; streaming: finishWhenFetchable).
func (o *OnServe) observe(j *collectJob, ev gram.EventData, polled bool, ps *trace.Span) bool {
	inv := j.inv
	st, terminal := terminalState(ev.State)
	j.mu.Lock()
	lastVer := j.lastVer
	j.mu.Unlock()
	stored := false
	if ev.OutputVersion > lastVer {
		inline := ev.Output != ""
		out, ver, changed, err := ev.Output, ev.OutputVersion, true, error(nil)
		if !inline {
			out, ver, changed, err = o.parts.Agent.OutputIfChanged(inv.sessionID, inv.JobID, lastVer)
		}
		switch {
		case err != nil:
			if terminal {
				return false
			}
		case changed && j.advance(ver, out):
			o.spill(out, inline, ps)
			stored = true
		default:
			o.collector.Update(func(c *CollectorStats) { c.OutputNotModified++ })
		}
	} else if terminal || polled {
		// The gatekeeper reads (and publishes) job state before the output
		// version, so a terminal state with an unmoved version means the
		// snapshot already held is the final output — no fetch at all.
		o.collector.Update(func(c *CollectorStats) { c.OutputNotModified++ })
	}
	if stored || terminal {
		if ev.State != "" {
			ps.Set("state", ev.State)
		}
		ps.End()
	}
	if terminal {
		o.finishAs(inv, st, ev.Message)
	}
	return true
}

// statusBatch reads the authoritative state of one session's jobs in one
// status-batch round-trip per gram.MaxBatch chunk and hands every healthy
// entry to apply. Transport trouble skips the round and a per-job error
// skips only its own entry: the caller's next tick, the stream or the
// watchdog decides.
func (o *OnServe) statusBatch(sessionID string, batch []*collectJob, apply func(*collectJob, gram.EventData)) {
	sort.Slice(batch, func(i, j int) bool { return batch[i].inv.JobID < batch[j].inv.JobID })
	ids := make([]string, len(batch))
	for i, j := range batch {
		ids[i] = j.inv.JobID
	}
	rpcs := uint64((len(ids) + gram.MaxBatch - 1) / gram.MaxBatch)
	o.collector.Update(func(c *CollectorStats) { c.StatusRPCs += rpcs })
	entries, err := o.parts.Agent.StatusBatch(sessionID, ids)
	if err != nil || len(entries) != len(batch) {
		return
	}
	for i, e := range entries {
		if e.Error == "" {
			apply(batch[i], gram.EventData{JobID: e.JobID, State: e.State, Message: e.Message, Site: e.Site, OutputVersion: e.OutputVersion})
		}
	}
}

// msgShutDown is the message of an invocation still running at Close: it
// ends KILLED, and its grid job is left as it is.
const msgShutDown = "onserve: appliance shut down"

// tentativePoller is the paper's collector: one polling goroutine per
// invocation, started once the submit reply is in, so the first poll
// comes one PollInterval after it.
type tentativePoller struct{ o *OnServe }

func (p tentativePoller) register(inv *Invocation) func(bool) {
	return func(ok bool) {
		if ok {
			go p.o.pollOutput(inv)
		}
	}
}

// pollOutput is the paper's workaround loop: "the local client has to
// request the output tentatively. Finally this may result in a service
// customer that requests the application's output more often than
// necessary". Each poll fetches the whole stdout snapshot and writes it
// to the local disk, whether or not anything changed. Close ends it.
func (o *OnServe) pollOutput(inv *Invocation) {
	wd := o.armWatchdog(inv)
	defer wd.Stop()
	lastLen := -1
	for o.pause(o.cfg.PollInterval) {
		if inv.State().Terminal() {
			return // watchdog or cancel got there first
		}
		// Status first, then one output fetch: when the job turns out to
		// be terminal, the snapshot taken after observing the terminal
		// state is current by construction, so no second fetch is needed.
		ps := o.parts.Tracing.StartSpan("poll", inv.collectCtx())
		o.collector.Update(func(c *CollectorStats) { c.StatusRPCs++ })
		status, err := o.parts.Agent.Status(inv.sessionID, inv.JobID)
		if err != nil {
			continue // transient; keep polling until the watchdog decides
		}
		changed := false
		out, ferr := o.parts.Agent.Output(inv.sessionID, inv.JobID)
		if ferr == nil {
			o.spill(out, false, ps)
			inv.setOutput(out)
			changed = len(out) != lastLen
			lastLen = len(out)
		}
		// A terminal state whose output did not fetch is polled again: the
		// snapshot stored so far may miss the end. The watchdog bounds it.
		st, terminal := terminalState(status.State)
		terminal = terminal && ferr == nil
		if changed || terminal {
			ps.Set("state", status.State)
			ps.End()
		}
		if terminal {
			o.finishAs(inv, st, status.Message)
			return
		}
	}
	inv.finish(InvKilled, msgShutDown, time.Now())
}
