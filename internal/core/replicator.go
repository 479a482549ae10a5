// Background pre-replication (Config.ReplicateTopK): after a service's
// chunks land at one site, push them asynchronously to the K
// least-loaded sibling sites through the chunked pipeline, so a hot
// executable is warm everywhere before the next burst arrives. The
// pushes ride the same content-addressed protocol as staging — a site
// that already holds the chunks costs a probe, not a transfer — and are
// bounded by a small worker pool plus a per-cycle wire-byte budget so
// replication can never starve foreground staging of the shaped WAN.
package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// Replicator defaults.
const (
	// DefaultReplicateWorkers is the push worker-pool size when
	// Config.ReplicateWorkers is unset.
	DefaultReplicateWorkers = 2
	// DefaultReplicateBudgetBytes caps the wire bytes the replicator may
	// push per cycle when Config.ReplicateBudgetBytes is unset.
	DefaultReplicateBudgetBytes = 256 << 20
	// replicateCycle is the budget window.
	replicateCycle = time.Minute
)

// repTask is one queued pre-replication: push service's executable from
// where it just landed to the top-K least-loaded siblings.
type repTask struct {
	sessionID  string
	exe        *executable
	sourceSite string
	checksum   string
}

// replicator runs the bounded push pipeline. Workers start lazily on
// the first enqueue and exit when the queue drains — OnServe has no
// shutdown hook, so nothing may idle forever (the poll hub's shard
// workers set the pattern).
type replicator struct {
	o *OnServe

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []repTask
	workers int
	active  int
	// seen dedupes enqueues: one replication round per service version.
	seen map[string]string
	// cycleStart/cycleBytes implement the per-cycle byte budget.
	cycleStart time.Time
	cycleBytes int64
}

func newReplicator(o *OnServe) *replicator {
	r := &replicator{o: o, seen: make(map[string]string)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// enqueue schedules one replication round for a freshly staged service
// version. Duplicate versions (the rest of a burst, a re-invocation)
// are dropped; a re-publish with a new checksum queues again.
func (r *replicator) enqueue(t repTask) {
	r.mu.Lock()
	if r.seen[t.exe.service] == t.checksum {
		r.mu.Unlock()
		return
	}
	r.seen[t.exe.service] = t.checksum
	r.queue = append(r.queue, t)
	if r.workers < r.o.cfg.ReplicateWorkers {
		r.workers++
		go r.run()
	}
	r.mu.Unlock()
}

// forget drops the service's dedup record (DeleteService), so a
// re-published service replicates again.
func (r *replicator) forget(service string) {
	r.mu.Lock()
	delete(r.seen, service)
	r.mu.Unlock()
}

// run is one worker: drain tasks, exit when the queue is empty. The
// exit happens under the lock, so an enqueue that observes workers <
// max never races a worker that is about to leave.
func (r *replicator) run() {
	for {
		r.mu.Lock()
		if len(r.queue) == 0 {
			r.workers--
			if r.active == 0 {
				r.cond.Broadcast()
			}
			r.mu.Unlock()
			return
		}
		t := r.queue[0]
		r.queue = r.queue[1:]
		r.active++
		r.mu.Unlock()

		r.pushAll(t)

		r.mu.Lock()
		r.active--
		if r.active == 0 && len(r.queue) == 0 {
			r.cond.Broadcast()
		}
		r.mu.Unlock()
	}
}

// Drain blocks until the replicator's queue is empty and every push in
// flight has finished — the synchronisation point tests and experiments
// use before asserting on the pushed state. A nil replicator (knob off)
// drains instantly.
func (o *OnServe) DrainReplicator() {
	if o.rep == nil {
		return
	}
	r := o.rep
	r.mu.Lock()
	for len(r.queue) > 0 || r.active > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// pushAll replicates one task to the top-K least-loaded sites.
func (r *replicator) pushAll(t repTask) {
	o := r.o
	stats, err := o.gridStats(t.sessionID)
	if err != nil {
		o.placement.repFailures.Add(1)
		return
	}
	// Pre-replication must respect the owner's site allow-list: a policy
	// that pins a tenant to certain sites would be defeated by background
	// copies landing elsewhere.
	cands := o.siteFilter(t.exe.owner, o.stageableLoads(stats))
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].name < cands[j].name
	})
	pushed := 0
	for _, c := range cands {
		if pushed >= o.cfg.ReplicateTopK {
			break
		}
		if c.name == t.sourceSite {
			continue
		}
		pushed++
		r.pushOne(t, c.name)
	}
}

// pushOne ships one service to one target site, subject to the cycle
// budget. The budget is a soft cap checked before the transfer and
// charged with the actual wire bytes after it, so at most one push can
// overshoot per cycle.
func (r *replicator) pushOne(t repTask, site string) {
	o := r.o
	r.mu.Lock()
	now := o.clock.Now()
	if r.cycleStart.IsZero() || now.Sub(r.cycleStart) >= replicateCycle {
		r.cycleStart, r.cycleBytes = now, 0
	}
	budget := o.cfg.ReplicateBudgetBytes
	if r.cycleBytes >= budget {
		r.mu.Unlock()
		o.placement.repSkips.Add(1)
		return
	}
	r.mu.Unlock()

	sp := o.cfg.Tracing.StartSpan("replicate", trace.SpanContext{})
	sp.Set("service", t.exe.service)
	sp.Set("from", t.sourceSite)
	sp.Set("site", site)
	blob, _ := t.exe.bytes() // cannot fail: the upload that queued the task already fetched them
	st, err := o.cfg.Agent.WithTrace(sp.Context()).UploadChunked(t.sessionID, site, t.exe.staged, blob, o.storedGzip(t.exe), o.cfg.ChunkBytes)
	if err != nil {
		o.placement.repFailures.Add(1)
		sp.Error(err.Error())
		sp.End()
		return
	}
	r.mu.Lock()
	r.cycleBytes += st.WireBytes
	r.mu.Unlock()
	o.placement.repPushes.Add(1)
	o.placement.repPushBytes.Add(uint64(st.WireBytes))
	sp.SetInt("wire_bytes", st.WireBytes)
	sp.SetInt("chunks_shipped", int64(st.ChunksShipped))
	sp.End()

	// The target is now warm: credit it in the possession cache and —
	// when the staging cache is on — record the replica so foreground
	// stagings skip the WAN entirely.
	o.notePossession(t.exe.service, site, st.LogicalBytes)
	if o.cfg.StagingCache {
		o.noteStaged(t.exe.service, site, st.Checksum)
	}
}
