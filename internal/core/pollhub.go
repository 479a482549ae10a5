package core

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/gram"
)

// CollectorStats counts the work the output-collection path performs,
// whichever collector is active (tentative poller, poll hub, or push).
// The poll-hub ablation reads it to compare gatekeeper round-trips, bytes
// fetched and disk writes across variants.
type CollectorStats struct {
	// StatusRPCs is the number of gatekeeper status round-trips: one per
	// Status call, one per status-batch chunk.
	StatusRPCs uint64 `json:"status_rpcs"`
	// OutputFetches counts output fetches that returned a body.
	OutputFetches uint64 `json:"output_fetches"`
	// OutputInlined counts snapshots stored straight from an event frame
	// that carried them (Config.PushEvents), at no fetch.
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

// collectorCounters is the mutable, atomically updated form.
type collectorCounters struct {
	statusRPCs        atomic.Uint64
	outputFetches     atomic.Uint64
	outputInlined     atomic.Uint64
	outputNotModified atomic.Uint64
	outputBytes       atomic.Uint64
	pollDiskWrites    atomic.Uint64
}

// CollectorStats snapshots the collection-path counters.
func (o *OnServe) CollectorStats() CollectorStats {
	return CollectorStats{
		StatusRPCs:        o.collector.statusRPCs.Load(),
		OutputFetches:     o.collector.outputFetches.Load(),
		OutputInlined:     o.collector.outputInlined.Load(),
		OutputNotModified: o.collector.outputNotModified.Load(),
		OutputBytes:       o.collector.outputBytes.Load(),
		PollDiskWrites:    o.collector.pollDiskWrites.Load(),
	}
}

// pollHub is the sharded replacement for the paper's per-invocation
// tentative pollers that the push collector falls back to; no
// configuration selects it alone (results/pollhub.json has push ahead of
// it on every metric). Invocations are hashed onto a
// small fixed set of shards; each shard worker wakes once per poll
// interval, batches all its in-flight job IDs into one gatekeeper
// status-batch round-trip per session, and hands each entry to observe,
// which fetches stdout only when the output version moved. Watchdog and
// cancel semantics are the tentative poller's: externally cancelled jobs
// are finished from the batched status like any other terminal state.
type pollHub struct {
	o      *OnServe
	shards []*hubShard
}

// hubShard owns a subset of in-flight invocations. Its worker goroutine
// is lazy: started by the first registration, exits when the shard
// drains (OnServe has no shutdown hook, so idle shards must not leak
// goroutines).
type hubShard struct {
	hub *pollHub

	mu      sync.Mutex
	jobs    map[string]*collectJob // ticket -> entry
	running bool
}

func newPollHub(o *OnServe, shards int) *pollHub {
	h := &pollHub{o: o}
	for i := 0; i < shards; i++ {
		h.shards = append(h.shards, &hubShard{hub: h, jobs: make(map[string]*collectJob)})
	}
	return h
}

// register hands a freshly submitted invocation to its shard.
func (h *pollHub) register(inv *Invocation) {
	h.adopt(&collectJob{inv: inv, wd: h.o.armWatchdog(inv)})
}

// adopt inserts a job whose watchdog is already armed — a fresh
// registration, or one handed down by the push collector when its stream
// died. The job's output cursor travels with it, so the conditional fetch
// never re-ships a snapshot the push path already stored.
func (h *pollHub) adopt(j *collectJob) {
	sh := h.shards[shardIndex(j.inv.Ticket, len(h.shards))]
	sh.mu.Lock()
	sh.jobs[j.inv.Ticket] = j
	if !sh.running {
		sh.running = true
		go sh.run()
	}
	sh.mu.Unlock()
}

// shardIndex maps a ticket onto a shard.
func shardIndex(ticket string, shards int) int {
	f := fnv.New32a()
	f.Write([]byte(ticket))
	return int(f.Sum32() % uint32(shards))
}

// run is the shard worker loop: sleep one poll interval, reap terminal
// entries, then poll the survivors in one batch per session (tokens are
// signed per credential, so a batch cannot span sessions).
func (sh *hubShard) run() {
	o := sh.hub.o
	for {
		o.clock.Sleep(o.cfg.PollInterval)
		sh.mu.Lock()
		for ticket, j := range sh.jobs {
			if j.inv.State().Terminal() {
				j.wd.Stop()
				delete(sh.jobs, ticket)
			}
		}
		if len(sh.jobs) == 0 {
			// Exit under the lock so a concurrent register either sees
			// running==true and relies on this loop, or restarts it.
			sh.running = false
			sh.mu.Unlock()
			return
		}
		groups := make(map[string][]*collectJob)
		for _, j := range sh.jobs {
			groups[j.inv.sessionID] = append(groups[j.inv.sessionID], j)
		}
		sh.mu.Unlock()
		for sessionID, batch := range groups {
			o.statusBatch(sessionID, batch, sh.collectOne)
		}
	}
}

// collectOne applies one status-batch entry to its invocation; a terminal
// job whose final fetch failed is simply seen again next tick. The run
// loop reaps terminal entries (and stops their watchdogs) on its next
// pass.
func (sh *hubShard) collectOne(j *collectJob, ev gram.EventData) {
	o := sh.hub.o
	if j.inv.State().Terminal() {
		return // cancel or watchdog got there between batching and now
	}
	ps := o.parts.Tracing.StartSpan("poll", j.inv.collectCtx())
	ps.Set("batched", "true")
	o.observe(j, ev, true, ps)
}
