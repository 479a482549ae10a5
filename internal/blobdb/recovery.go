package blobdb

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/trace"
)

// layoutManifest declares the directory's shard count and is the commit
// point of the stock-layout import: once it exists the per-shard files
// are authoritative and any wal.log/snapshot.db is stale; while it is
// absent the stock files are, and any snapshot-<s>.db is the leftover of
// an import that never committed.
type layoutManifest struct {
	Shards int `json:"shards"`
}

// recover loads the directory into db.shards — as many as the manifest
// declares, or want of them for a directory that has none yet — and
// leaves every shard with an open live segment.
func (db *DB) recover(want int) error {
	sp := db.tracer.StartRoot("db.replay")
	err := db.recoverLayout(sp, want)
	if err != nil {
		sp.Error(err.Error())
		// Every shard that did replay holds an open live segment.
		for _, s := range db.shards {
			if s.wal != nil {
				s.wal.Close()
			}
		}
	}
	sp.End()
	return err
}

func (db *DB) recoverLayout(sp *trace.Span, want int) error {
	db.cleanTempFiles()
	have, err := db.readManifest()
	if err != nil {
		return err
	}
	if have == 0 {
		if err := db.importStock(want); err != nil {
			return err
		}
		have = want
	}
	sp.SetInt("shards", int64(have))
	db.shards = newShards(db, have)
	// Replay the shards in parallel — each one reads only its own snapshot
	// and segments.
	var wg sync.WaitGroup
	errs := make([]error, have)
	counts := make([]int64, have)
	for i, s := range db.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			counts[i], errs[i] = s.replay()
		}(i, s)
	}
	wg.Wait()
	var total int64
	for i := range errs {
		total += counts[i]
		if err == nil {
			err = errs[i]
		}
	}
	if err != nil {
		return err
	}
	sp.SetInt("entries", total)
	// An import that crashed after its manifest landed leaves the stock
	// files behind; the manifest said they are stale.
	return db.removeStockFiles()
}

// readManifest returns the directory's shard count, 0 when it has no
// manifest.
func (db *DB) readManifest() (int, error) {
	raw, err := os.ReadFile(filepath.Join(db.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("blobdb: read manifest: %w", err)
	}
	var m layoutManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Shards < 1 {
		return 0, fmt.Errorf("%w: manifest shard count %d", ErrCorrupt, m.Shards)
	}
	return m.Shards, nil
}

// importStock turns a directory with no manifest — a new one, or one in
// the retired wal.log + snapshot.db layout — into an n-shard directory:
// the stock files are replayed, written out as per-shard snapshots, and
// the manifest commits the result. Nothing stock is unlinked before that
// (recoverLayout does it afterwards), so a crash anywhere before the
// manifest is durable starts over from the untouched stock files.
func (db *DB) importStock(n int) error {
	// Snapshots of an earlier attempt that never committed.
	if err := db.removeShardFiles(); err != nil {
		return err
	}
	shards := newShards(db, n)
	apply := func(e *walEntry) {
		shards[shardIndex(e.Table, e.Key, n)].apply(e, -1)
	}
	if err := replayPath(filepath.Join(db.dir, snapshotName), true, "snapshot", apply); err != nil {
		return err
	}
	if err := replayPath(filepath.Join(db.dir, walName), false, "wal", apply); err != nil {
		return err
	}
	for _, s := range shards {
		if len(s.tables) == 0 {
			continue // replay treats a missing snapshot as empty
		}
		if _, err := db.writeSnapshotFile(shardSnapshotFile(s.idx), 0, s.tables); err != nil {
			return err
		}
	}
	raw, _ := json.Marshal(layoutManifest{Shards: n})
	_, err := db.writeFileAtomic(manifestName, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	return err
}

// replay loads one shard's snapshot and segments, rebuilds its
// per-segment liveness counts, truncates torn tails — the expected crash
// artifact, so later appends continue a clean log instead of burying
// garbage mid-file — and opens the highest segment for appending.
// Corruption before a tail is reported. Segments below the snapshot's
// floor are superseded leftovers (compaction unlinks them lazily) and
// are removed.
func (s *shard) replay() (int64, error) {
	db := s.db
	s.segs = make(map[int]*segMeta)
	s.tombs = make(map[string]int)
	var entries int64
	floor := 0
	snapApply := func(e *walEntry) {
		if e.Op == opFloor {
			floor = e.RawSize
			return
		}
		entries++
		s.apply(e, -1)
	}
	if err := replayPath(filepath.Join(db.dir, shardSnapshotFile(s.idx)), true, "snapshot", snapApply); err != nil {
		return entries, err
	}
	segList, err := listSegments(db.dir, s.idx)
	if err != nil {
		return entries, err
	}
	s.seg = floor
	for _, seg := range segList {
		path := filepath.Join(db.dir, segmentFile(s.idx, seg))
		if seg < floor {
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return entries, err
			}
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return entries, fmt.Errorf("blobdb: open segment: %w", err)
		}
		_, good, torn, rerr := replayReader(f, false, func(e *walEntry) {
			entries++
			s.apply(e, seg)
		})
		f.Close()
		if rerr != nil {
			return entries, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), rerr)
		}
		if torn {
			// One torn tail per segment is tolerated; truncating keeps the
			// file consistent with what replay consumed.
			if err := os.Truncate(path, good); err != nil {
				return entries, fmt.Errorf("blobdb: truncate torn segment: %w", err)
			}
		}
		s.segMeta(seg).bytes = good
		s.seg = seg
	}
	live := s.segMeta(s.seg)
	for i, m := range s.segs {
		m.sealed = i != s.seg
	}
	s.segBytes = live.bytes
	f, err := os.OpenFile(filepath.Join(db.dir, segmentFile(s.idx, s.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return entries, fmt.Errorf("blobdb: open segment: %w", err)
	}
	s.wal = newWALFile(f)
	return entries, nil
}

// writeSnapshotFile is the one place snapshot files come from: a floor
// entry (the first segment the snapshot does NOT cover) and one put per
// row of tables, written atomically as name. It reports the file's size.
func (db *DB) writeSnapshotFile(name string, floor int, tables map[string]map[string]*row) (int64, error) {
	return db.writeFileAtomic(name, func(w io.Writer) error {
		if err := writeEntry(w, &walEntry{Op: opFloor, RawSize: floor}); err != nil {
			return err
		}
		for table, rows := range tables {
			for key, r := range rows {
				if err := writeEntry(w, r.putEntry(table, key, r.meta, r.storedAt)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// writeFileAtomic fills a temp file, syncs it, renames it to name and
// fsyncs the directory: after a crash name holds either its old content
// or all of the new. It reports the bytes written.
func (db *DB) writeFileAtomic(name string, fill func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(db.dir, "snaptmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 64<<10)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	size, _ := tmp.Seek(0, io.SeekCurrent)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(db.dir, name)); err != nil {
		return 0, err
	}
	// The rename is only durable once the directory entry is: without this
	// fsync a crash could roll back to a file that the about-to-be-unlinked
	// segments (or stock files) no longer back.
	return size, fsyncDir(db.dir)
}

// --- directory helpers ---

// listSegments returns shard idx's segment indexes, ascending.
func listSegments(dir string, idx int) ([]int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("wal-%d-*.log", idx)))
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, m := range matches {
		sh, seg, ok := parseSegmentName(filepath.Base(m))
		if !ok || sh != idx {
			return nil, fmt.Errorf("%w: unexpected wal file %s", ErrCorrupt, filepath.Base(m))
		}
		segs = append(segs, seg)
	}
	sort.Ints(segs)
	return segs, nil
}

// parseSegmentName accepts exactly the names segmentFile produces.
func parseSegmentName(name string) (shard, seg int, ok bool) {
	n, err := fmt.Sscanf(name, "wal-%d-%d.log", &shard, &seg)
	if err != nil || n != 2 || shard < 0 || seg < 0 || name != segmentFile(shard, seg) {
		return 0, 0, false
	}
	return shard, seg, true
}

// removeStockFiles unlinks the retired layout's two files, if present.
func (db *DB) removeStockFiles() error {
	removed := false
	for _, name := range []string{walName, snapshotName} {
		err := os.Remove(filepath.Join(db.dir, name))
		if err == nil {
			removed = true
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if removed {
		return fsyncDir(db.dir)
	}
	return nil
}

// removeShardFiles unlinks every wal-<s>-<seg>.log and snapshot-<s>.db
// in the directory, whatever the shard count that produced them.
func (db *DB) removeShardFiles() error {
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, ent := range ents {
		name := ent.Name()
		_, _, isSeg := parseSegmentName(name)
		var idx int
		n, _ := fmt.Sscanf(name, "snapshot-%d.db", &idx)
		if isSeg || (n == 1 && name == shardSnapshotFile(idx)) {
			if err := os.Remove(filepath.Join(db.dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fsyncDir(db.dir)
	}
	return nil
}

// cleanTempFiles drops snapshot temp files left by a crash mid-write.
func (db *DB) cleanTempFiles() {
	matches, _ := filepath.Glob(filepath.Join(db.dir, "snaptmp-*"))
	for _, m := range matches {
		os.Remove(m)
	}
}

// --- replay ---

// replayPath replays one file if it exists. strict files (snapshots,
// written atomically) must not tear; tolerant ones may tear at the tail.
func replayPath(path string, strict bool, kind string, apply func(*walEntry)) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("blobdb: open %s: %w", kind, err)
	}
	defer f.Close()
	if _, _, _, err := replayReader(f, strict, apply); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, kind, err)
	}
	return nil
}

// replayReader applies entries from r. strict controls whether a torn
// tail is an error; otherwise it is reported via torn, with good set to
// the offset after the last whole entry.
func replayReader(r io.Reader, strict bool, apply func(*walEntry)) (entries, good int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		e, n, rerr := readEntry(br)
		if errors.Is(rerr, io.EOF) {
			return entries, good, false, nil
		}
		if errors.Is(rerr, io.ErrUnexpectedEOF) {
			if strict {
				return entries, good, false, io.ErrUnexpectedEOF
			}
			return entries, good, true, nil
		}
		if rerr != nil {
			return entries, good, false, rerr
		}
		apply(e)
		entries++
		good += n
	}
}
