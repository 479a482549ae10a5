package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/blobdb"
	"repro/internal/gsh"
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
// shard count, over {1, 4, 16} with everything else held equal, and
// weighs group commit. It runs in real time against real files — virtual
// time would hide exactly the fsync and lock-hold costs sharding and
// group commit exist to remove. Each count gets two runs:
//
//   - load: sustained overwrites on a preloaded store that must reclaim
//     space while serving (a WAL-structured store cannot take overwrites
//     forever without compaction, so the background compactor is part of
//     the steady state): puts/s, p99 put latency, segments retired.
//   - replay: Open() wall time on a just-closed replayRecords-record store —
//     shards replay in parallel, overlapping one's decode with the
//     others' reads.
//
// Then the WAL's append path under concurrent writers, with and without
// group commit (groupCommit).
func AblationBlobDB(replayRecords int) (*AblationResult, error) {
	replayRecords = orDefault(replayRecords, 1_000_000)
	res := &AblationResult{Notes: []string{
		"real-time sweep of blobdb's shard count, all other options equal (see DESIGN.md, storage engine section)",
		"blobdb-load: 8 writers x 500 overwriting 32 KB puts on a preloaded 512-key store, 1 MB segments, background compactor every 50 ms; more shards means narrower locks and smaller reclamation units (one 1/N-of-keyspace snapshot at a time)",
		fmt.Sprintf("blobdb-replay: Open() of a just-closed %d-record store (warm page cache)", replayRecords),
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
	if err := groupCommit(res, 64, 8, 16); err != nil {
		return nil, err
	}
	return res, nil
}

// groupCommit measures the WAL append path under concurrent writers: the
// stock one-unsynced-write-per-mutation behaviour against group commit
// (batched appends, one fsync per batch), and appends the rows to res.
func groupCommit(res *AblationResult, payloadKB, writers, putsPerWriter int) error {
	res.Notes = append(res.Notes,
		fmt.Sprintf("group-commit: %d writers x %d puts of %d KB against an on-disk WAL; stock: one unsynced write per put; group: batched appends, one fsync per batch", writers, putsPerWriter, payloadKB),
		"group commit upgrades durability (acked puts survive a crash) while amortising the flush")
	blob := gsh.Pad([]byte("echo x\n"), payloadKB<<10)
	for _, group := range []bool{false, true} {
		err := withTempDB(blobdb.Options{GroupCommit: group}, func(_ blobdb.Options, db *blobdb.DB) error {
			defer db.Close()
			tab := db.Table("bench")
			start := time.Now()
			err := fanOut(writers, 0, func(w int) error {
				for i := 0; i < putsPerWriter; i++ {
					if err := tab.Put(fmt.Sprintf("w%02d-k%03d", w, i), nil, blob); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			walWrites, walSyncs := db.WALStats()
			if err := db.Close(); err != nil {
				return err
			}
			row := res.at("group-commit", map[bool]string{false: "stock", true: "group"}[group])
			row("wall_ms", float64(elapsed.Milliseconds()))
			row("puts_per_s", float64(writers*putsPerWriter)/elapsed.Seconds())
			row("wal_writes", float64(walWrites))
			row("wal_syncs", float64(walSyncs))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
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

// blobReplay times an Open of a just-closed store holding records small
// rows. The page cache stays warm: a study leaves the host's kernel state
// alone, so the replay is bound by decoding, not by reads.
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
