package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/gram"
	"repro/internal/trace"
)

// collector is the seam of the pipeline's fifth step. Invoke hands every
// freshly submitted invocation to the one collector New chose — the
// paper's tentative poller, or the push collector with the poll hub as
// its fallback rung — and that collector owns the invocation until
// it is terminal: it arms the watchdog, stores output as it appears and
// records the final state.
type collector interface {
	register(inv *Invocation)
}

// collectJob is one in-flight invocation's collector-side record. The hub
// and the push collector share it, so the push → hub fallback hands a job
// over as it is: same armed watchdog, same output cursor.
type collectJob struct {
	inv *Invocation
	wd  *Watchdog

	mu sync.Mutex
	// lastVer is the output version of the snapshot last stored in the
	// invocation; 0 before any output was seen.
	lastVer uint64
}

// advance moves the output cursor to ver; false means a concurrent fetch
// already stored that snapshot or a newer one.
func (j *collectJob) advance(ver uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ver <= j.lastVer {
		return false
	}
	j.lastVer = ver
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
	if inv.finish(st, message, o.clock.Now()) {
		o.releaseSession(inv.sessionID)
	}
}

// armWatchdog starts the invocation's deadline timer ("a watchdog class,
// that is used to react correctly ... when a process takes too long to
// complete"). The verdict is recorded before the grid job is cancelled:
// finish is once-only, so the CANCELLED state that the cancel provokes —
// which the push collector can be told of before Cancel even returns — is
// ignored instead of racing the kill for the final state.
func (o *OnServe) armWatchdog(inv *Invocation) *Watchdog {
	return NewWatchdog(o.clock, o.cfg.InvocationTimeout, func() {
		killed := inv.finish(InvKilled, fmt.Sprintf("watchdog: invocation exceeded %v", o.cfg.InvocationTimeout), o.clock.Now())
		o.parts.Agent.Cancel(inv.sessionID, inv.JobID)
		if killed {
			o.releaseSession(inv.sessionID)
		}
	})
}

// storeOutput keeps a stdout snapshot, counted by how it arrived — fetched
// from /gram/output or inline in an event frame: the local spill is a disk
// write on the appliance (the periodic peaks of Figs. 6 and 7).
func (o *OnServe) storeOutput(inv *Invocation, out string, inline bool, ps *trace.Span) {
	if inline {
		o.collector.outputInlined.Add(1)
	} else {
		o.collector.outputFetches.Add(1)
	}
	o.collector.outputBytes.Add(uint64(len(out)))
	o.collector.pollDiskWrites.Add(1)
	o.cfg.Probe.DiskWrite(len(out))
	inv.setOutput(out)
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
// its own policy (hub: the next tick; push: finishWhenFetchable).
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
		case changed && j.advance(ver):
			o.storeOutput(inv, out, inline, ps)
			stored = true
		default:
			o.collector.outputNotModified.Add(1)
		}
	} else if terminal || polled {
		// The gatekeeper reads (and publishes) job state before the output
		// version, so a terminal state with an unmoved version means the
		// snapshot already held is the final output — no fetch at all.
		o.collector.outputNotModified.Add(1)
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
	o.collector.statusRPCs.Add(uint64((len(ids) + gram.MaxBatch - 1) / gram.MaxBatch))
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

// tentativePoller is the paper's collector: one polling goroutine per
// invocation.
type tentativePoller struct{ o *OnServe }

func (p tentativePoller) register(inv *Invocation) { go p.o.pollOutput(inv) }

// pollOutput is the paper's workaround loop: "the local client has to
// request the output tentatively. Finally this may result in a service
// customer that requests the application's output more often than
// necessary". Each poll fetches the whole stdout snapshot and writes it
// to the local disk, whether or not anything changed.
func (o *OnServe) pollOutput(inv *Invocation) {
	wd := o.armWatchdog(inv)
	defer wd.Stop()
	lastLen := -1
	for {
		o.clock.Sleep(o.cfg.PollInterval)
		if inv.State().Terminal() {
			return // watchdog or cancel got there first
		}
		// Status first, then one output fetch: when the job turns out to
		// be terminal, the snapshot taken after observing the terminal
		// state is current by construction, so no second fetch is needed.
		ps := o.parts.Tracing.StartSpan("poll", inv.collectCtx())
		o.collector.statusRPCs.Add(1)
		status, err := o.parts.Agent.Status(inv.sessionID, inv.JobID)
		if err != nil {
			continue // transient; keep polling until the watchdog decides
		}
		changed := false
		if out, err := o.parts.Agent.Output(inv.sessionID, inv.JobID); err == nil {
			o.storeOutput(inv, out, false, ps)
			changed = len(out) != lastLen
			lastLen = len(out)
		}
		st, terminal := terminalState(status.State)
		if changed || terminal {
			ps.Set("state", status.State)
			ps.End()
		}
		if terminal {
			o.finishAs(inv, st, status.Message)
			return
		}
	}
}
