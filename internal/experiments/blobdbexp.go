package experiments

import (
	"fmt"
	"os"
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
	replayRecords = orDefault(replayRecords, 1_000_000)
	res := &AblationResult{Notes: []string{
		"real-time sweep of blobdb's shard count, all other options equal (see DESIGN.md, storage engine section)",
		"blobdb-load: 8 writers x 500 overwriting 32 KB puts on a preloaded 512-key store, 1 MB segments, background compactor every 50 ms; more shards means narrower locks and smaller reclamation units (one 1/N-of-keyspace snapshot at a time)",
		fmt.Sprintf("blobdb-replay: cold Open() of a %d-record store (page cache dropped when permitted)", replayRecords),
	}}
	for _, shards := range []int{1, 4, 16} {
		variant := fmt.Sprintf("shards-%d", shards)
		if err := blobLoad(shards, res.at("blobdb-load", variant)); err != nil {
			return nil, err
		}
		if err := blobReplay(shards, replayRecords, res.at("blobdb-replay", variant)); err != nil {
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
func blobLoad(shards int, row func(metric string, v float64)) error {
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
		lats := make([][]float64, writers) // per-put latency, ms
		start := time.Now()
		err := fanOut(writers, 0, func(w int) error {
			for i := 0; i < perWriter; i++ {
				t0 := time.Now()
				if err := tab.Put(fmt.Sprintf("k%04d", (w*perWriter+i)%keys), nil, blob); err != nil {
					return err
				}
				lats[w] = append(lats[w], float64(time.Since(t0).Microseconds())/1e3)
			}
			return nil
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		var all []float64
		for w := range lats {
			all = append(all, lats[w]...)
		}
		st := db.Stats().Compactor
		row("puts_per_s", float64(writers*perWriter)/elapsed.Seconds())
		row("p99_put_ms", pctile(all, 99))
		row("segments_retired", float64(st.SegmentsRetired))
		row("snapshots", float64(st.Snapshots))
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
func blobReplay(shards, records int, row func(metric string, v float64)) error {
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
		row("open_ms", float64(elapsed.Milliseconds()))
		row("records_per_s", float64(records)/elapsed.Seconds())
		return nil
	})
}
