package experiments

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/blobdb"
)

// incompressible fills n bytes from a xorshift stream so gzip cannot
// shrink the payload — the study below measures the WAL, not the
// compressor.
func incompressible(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := seed*2654435761 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

func durP99(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// AblationBlobDB sweeps the storage engine's one structural knob, the
// shard count, over {1, 4, 16} with everything else held equal. Like
// AblationGroupCommit it runs in real time against real files — time
// dilation would hide exactly the fsync and lock-hold costs sharding
// exists to remove. Each count gets two runs:
//
//   - load: sustained overwrites on a preloaded store that must reclaim
//     space while serving (a WAL-structured store cannot take overwrites
//     forever without compaction, so the background compactor is part of
//     the steady state): puts/s, p99 put latency, segments retired.
//   - replay: cold Open() wall time on a replayRecords-record store —
//     shards replay in parallel, overlapping one's decode with the
//     others' reads.
func AblationBlobDB(replayRecords int) (*AblationResult, error) {
	if replayRecords <= 0 {
		replayRecords = 1_000_000
	}
	res := &AblationResult{Notes: []string{
		"real-time sweep of blobdb's shard count, all other options equal (see DESIGN.md, storage engine section)",
		"blobdb-load: 8 writers x 500 overwriting 32 KB puts on a preloaded 512-key store, 1 MB segments, background compactor every 50 ms; more shards means narrower locks and smaller reclamation units (one 1/N-of-keyspace snapshot at a time)",
		fmt.Sprintf("blobdb-replay: cold Open() of a %d-record store (page cache dropped when permitted)", replayRecords),
	}}
	for _, shards := range []int{1, 4, 16} {
		variant := fmt.Sprintf("shards-%d", shards)
		row := func(study, metric string, v float64) {
			res.Rows = append(res.Rows, AblationRow{Study: study, Variant: variant, Metric: metric, Value: v})
		}
		if err := blobLoad(shards, row); err != nil {
			return nil, err
		}
		if err := blobReplay(shards, replayRecords, row); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// withTempDB opens a database in a fresh temp directory, runs fn and
// removes the directory; fn owns (and closes) the handle.
func withTempDB(opts blobdb.Options, fn func(opts blobdb.Options, db *blobdb.DB) error) error {
	dir, err := os.MkdirTemp("", "blobdb-exp-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts.Dir = dir
	db, err := blobdb.Open(opts)
	if err != nil {
		return err
	}
	return fn(opts, db)
}

// blobLoad times every put of an overwrite-heavy burst while the
// compactor reclaims behind it.
func blobLoad(shards int, row func(study, metric string, v float64)) error {
	const keys, writers, perWriter, payload = 512, 8, 500, 32 << 10
	blob := incompressible(payload, 7)
	opts := blobdb.Options{WALShards: shards, SegmentBytes: 1 << 20,
		AutoCompact: true, CompactEvery: 50 * time.Millisecond}
	return withTempDB(opts, func(_ blobdb.Options, db *blobdb.DB) error {
		defer db.Close()
		tab := db.Table("bench")
		for i := 0; i < keys; i++ {
			if err := tab.Put(fmt.Sprintf("k%04d", i), nil, blob); err != nil {
				return err
			}
		}
		lats := make([][]time.Duration, writers)
		errs := make([]error, writers)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter && errs[w] == nil; i++ {
					t0 := time.Now()
					errs[w] = tab.Put(fmt.Sprintf("k%04d", (w*perWriter+i)%keys), nil, blob)
					lats[w] = append(lats[w], time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		var all []time.Duration
		for w := range lats {
			if errs[w] != nil {
				return errs[w]
			}
			all = append(all, lats[w]...)
		}
		st := db.Stats().Compactor
		row("blobdb-load", "puts_per_s", float64(writers*perWriter)/elapsed.Seconds())
		row("blobdb-load", "p99_put_ms", float64(durP99(all).Microseconds())/1e3)
		row("blobdb-load", "segments_retired", float64(st.SegmentsRetired))
		row("blobdb-load", "snapshots", float64(st.Snapshots))
		return db.Close()
	})
}

// dropPageCache makes a reopen genuinely cold. Best-effort: it needs
// root, and the study is still meaningful (if noisier) without it —
// warm replay is CPU-bound on decode, cold replay also pays the reads.
func dropPageCache() {
	syscall.Sync()
	os.WriteFile("/proc/sys/vm/drop_caches", []byte("3"), 0)
}

// blobReplay times a cold-boot Open of a store holding records small
// rows.
func blobReplay(shards, records int, row func(study, metric string, v float64)) error {
	blob := incompressible(64, 13)
	opts := blobdb.Options{WALShards: shards, SegmentBytes: 64 << 20}
	return withTempDB(opts, func(opts blobdb.Options, db *blobdb.DB) error {
		tab := db.Table("bench")
		for i := 0; i < records; i++ {
			if err := tab.Put(fmt.Sprintf("k%07d", i), nil, blob); err != nil {
				db.Close()
				return err
			}
		}
		if err := db.Close(); err != nil {
			return err
		}
		dropPageCache()
		start := time.Now()
		db, err := blobdb.Open(opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		defer db.Close()
		if n := db.Table("bench").Len(); n != records {
			return fmt.Errorf("blobdb replay: recovered %d of %d records (shards=%d)", n, records, shards)
		}
		row("blobdb-replay", "open_ms", float64(elapsed.Milliseconds()))
		row("blobdb-replay", "records_per_s", float64(records)/elapsed.Seconds())
		return nil
	})
}
