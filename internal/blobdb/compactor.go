package blobdb

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// CompactorStats are the background compactor's lifetime totals.
type CompactorStats struct {
	// Runs counts scan sweeps.
	Runs int64 `json:"runs"`
	// Snapshots counts shard snapshot compactions.
	Snapshots int64 `json:"snapshots"`
	// SegmentsRetired counts sealed segments unlinked (both fully-dead
	// retirement and snapshot coverage).
	SegmentsRetired int64 `json:"segments_retired"`
	// RetiredBytes is the on-disk bytes those segments held.
	RetiredBytes int64 `json:"retired_bytes"`
	// SnapshotBytes is the total bytes of snapshots written.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Failures counts snapshot compactions that returned an error (a disk
	// that cannot take the snapshot): the segments stay and the next sweep
	// tries again.
	Failures int64 `json:"failures"`
}

// compactor incrementally reclaims WAL garbage under live traffic. Each
// sweep it (a) unlinks sealed segments that are fully dead — free, no
// rewrite — across every shard, and (b) snapshot-compacts at most ONE
// shard, the one with the worst sealed dead-entry ratio past 50%. One
// snapshot rewrite per sweep is the rate limit: the IO the compactor
// injects is bounded and each pause touches one shard's lock only
// briefly (seal + map copy), never the whole store.
type compactor struct {
	db    *DB
	every time.Duration
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	stats metrics.Block[CompactorStats]
}

// compactDeadRatio is the sealed dead-entry fraction above which a shard
// earns a snapshot compaction.
const compactDeadRatio = 0.5

func startCompactor(db *DB, every time.Duration) *compactor {
	c := &compactor{
		db:    db,
		every: every,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.run()
	return c
}

// halt stops the compactor, waiting out any in-flight sweep.
func (c *compactor) halt() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

func (c *compactor) run() {
	defer close(c.done)
	t := time.NewTicker(c.every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.sweep()
	}
}

func (c *compactor) sweep() {
	var (
		retired      int64
		retiredBytes int64
		worst        = -1
		worstRatio   float64
	)
	for i, s := range c.db.shards {
		n, bytes := s.retireDead()
		retired += int64(n)
		retiredBytes += bytes
		dead, total, sealed := s.sealedGarbage()
		if sealed > 0 && total > 0 {
			if ratio := float64(dead) / float64(total); ratio >= compactDeadRatio && ratio > worstRatio {
				worst, worstRatio = i, ratio
			}
		}
	}
	var out compactOutcome
	var err error
	if worst >= 0 {
		out, err = c.db.shards[worst].compactSnapshot()
	}
	c.stats.Update(func(st *CompactorStats) {
		st.Runs++
		if err != nil {
			st.Failures++
		}
		st.SegmentsRetired += retired + int64(out.retiredSegs)
		st.RetiredBytes += retiredBytes + out.retiredBytes
		if out.snapBytes > 0 {
			st.Snapshots++
			st.SnapshotBytes += out.snapBytes
		}
	})
}
