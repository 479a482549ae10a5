package blobdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// shard is one slice of the keyspace with its own lock, tables, and — in
// a persistent database — its own segmented WAL, with per-segment
// liveness tracked so compaction can retire sealed segments.
type shard struct {
	db  *DB
	idx int

	mu     sync.RWMutex
	tables map[string]map[string]*row
	closed bool
	genSeq uint64

	wal      walFile
	seg      int   // live segment index
	segBytes int64 // bytes in the live segment
	// segs tracks per-segment entry/liveness counts; nil for in-memory
	// databases, which have no WAL.
	segs map[int]*segMeta
	// tombs maps table\x00key to the segment holding the latest delete
	// entry for a key with no surviving row — the delete must stay on
	// disk (it is "live") until a snapshot covers its segment.
	tombs map[string]int

	// walWrites / walSyncs count WAL write and fsync calls (group-commit
	// batching makes walWrites < puts under concurrency).
	walWrites int64
	walSyncs  int64

	gc *groupCommitter // per-shard WAL group commit; nil when disabled

	// compactMu serialises whole compaction cycles on the shard:
	// interleaved snapshot renames could otherwise
	// let an older snapshot land after a newer one retired its segments.
	compactMu sync.Mutex
}

func newShards(db *DB, n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{db: db, idx: i, tables: make(map[string]map[string]*row)}
	}
	return shards
}

// segMeta is one WAL segment's bookkeeping.
type segMeta struct {
	bytes   int64
	entries int64 // entries written to the segment
	live    int64 // entries not yet superseded by later writes
	sealed  bool  // no longer the append target
}

func (s *shard) segMeta(seg int) *segMeta {
	m := s.segs[seg]
	if m == nil {
		m = &segMeta{}
		s.segs[seg] = m
	}
	return m
}

func (s *shard) noteEntry(seg int) {
	if seg >= 0 {
		m := s.segMeta(seg)
		m.entries++
		m.live++
	}
}

func (s *shard) noteDead(seg int) {
	if m := s.segs[seg]; m != nil {
		m.live--
	}
}

// apply installs one entry into the in-memory state, maintaining the
// per-segment liveness counts when the shard is persistent. seg is the
// segment the entry was logged to; -1 means "from a snapshot". Callers
// hold s.mu (or own the shard exclusively, as recovery does).
func (s *shard) apply(e *walEntry, seg int) {
	t := s.tables[e.Table]
	if t == nil {
		t = make(map[string]*row)
		s.tables[e.Table] = t
	}
	tk := e.Table + "\x00" + e.Key
	switch e.Op {
	case "put":
		s.genSeq++
		if s.segs != nil {
			s.noteEntry(seg)
			if old, ok := t[e.Key]; ok {
				s.noteDead(old.seg)
			} else if ts, ok := s.tombs[tk]; ok {
				s.noteDead(ts)
				delete(s.tombs, tk)
			}
		}
		r := &row{meta: e.Meta, comp: e.Comp, rawSize: e.RawSize,
			storedAt: e.StoredAt, gen: s.genSeq, seg: seg}
		if len(e.Sum) == len(r.sum) {
			copy(r.sum[:], e.Sum)
			r.sumKnown.Store(true)
		}
		t[e.Key] = r
	case "delete":
		if s.segs != nil {
			s.noteEntry(seg)
			if old, ok := t[e.Key]; ok {
				s.noteDead(old.seg)
				if seg >= 0 {
					s.tombs[tk] = seg
				}
			} else if ts, ok := s.tombs[tk]; ok {
				s.noteDead(ts)
				if seg >= 0 {
					s.tombs[tk] = seg
				} else {
					delete(s.tombs, tk)
				}
			} else if seg >= 0 {
				// Delete of a key that never existed in replayed history:
				// the entry is dead the moment it lands.
				s.noteDead(seg)
			}
		}
		delete(t, e.Key)
	}
	if s.db.cache != nil {
		s.db.cache.invalidate(tk)
	}
}

// commit logs and applies one entry: through the shard's group
// committer when it has one, under the shard lock otherwise.
func (s *shard) commit(e *walEntry) error {
	if s.gc != nil {
		return s.gc.commit(e)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.log(e); err != nil {
		return err
	}
	s.apply(e, s.seg)
	return nil
}

// log appends an entry to the shard's WAL (if persistent), rolling the
// live segment first when it is over the limit, and accounts the disk
// write either way — the paper's DB writes hit disk whether or not our
// test process does. Callers hold s.mu.
func (s *shard) log(e *walEntry) error {
	var n int
	if s.wal != nil {
		if err := s.maybeRoll(); err != nil {
			return err
		}
		buf := frames.Get()
		defer frames.Put(buf)
		buf.Reset()
		if err := appendEntry(buf, e); err != nil {
			return err
		}
		n = buf.Len()
		if _, err := s.wal.Write(buf.Bytes()); err != nil {
			return err
		}
		s.walWrites++
		s.noteWritten(int64(n))
	} else {
		n = len(e.Comp) + 128
	}
	s.db.probe.DiskWrite(n)
	return nil
}

// noteWritten accounts n appended bytes to the live segment.
func (s *shard) noteWritten(n int64) {
	s.segBytes += n
	s.segMeta(s.seg).bytes += n
}

// maybeRoll seals the live segment and opens the next once it passes the
// limit.
func (s *shard) maybeRoll() error {
	if s.segBytes < s.db.segLimit {
		return nil
	}
	return s.roll()
}

// roll seals the live segment — syncing it and fsyncing the directory so
// both the sealed bytes and the new segment's entry survive a crash —
// and swaps appends to the next segment file. Callers hold s.mu.
func (s *shard) roll() error {
	next := s.seg + 1
	path := filepath.Join(s.db.dir, segmentFile(s.idx, next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	s.walSyncs++
	if err := fsyncDir(s.db.dir); err != nil {
		f.Close()
		return err
	}
	s.wal.Close()
	s.segMeta(s.seg).sealed = true
	s.seg = next
	s.segBytes = 0
	s.segMeta(next)
	s.wal = newWALFile(f)
	return nil
}

// compactSnapshot folds the shard's state into its snapshot file and
// retires every segment the snapshot covers. Only the seal (a roll) and
// the state copy run under the shard's write lock; the snapshot write
// happens beside live traffic. The snapshot records a floor (first
// segment it does NOT cover), which makes the subsequent unlinks
// crash-safe in any order: a resurrected pre-floor segment is skipped at
// replay.
func (s *shard) compactSnapshot() (compactOutcome, error) {
	var out compactOutcome
	db := s.db
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	sp := db.tracer.StartRoot("db.compact")
	sp.SetInt("shard", int64(s.idx))
	fail := func(err error) (compactOutcome, error) {
		sp.Error(err.Error())
		sp.End()
		return out, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fail(ErrClosed)
	}
	if s.segs == nil {
		s.mu.Unlock()
		sp.End()
		return out, nil // in-memory
	}
	// Seal the live segment iff it holds anything, so the snapshot's
	// coverage cuts at a segment boundary; an empty live segment means
	// repeated compactions don't churn out new files.
	if s.segBytes > 0 || s.segMeta(s.seg).entries > 0 {
		if err := s.roll(); err != nil {
			s.mu.Unlock()
			return fail(err)
		}
	}
	cut := s.seg - 1
	covered := 0
	for i := range s.segs {
		if i <= cut {
			covered++
		}
	}
	if covered == 0 {
		s.mu.Unlock()
		sp.End()
		return out, nil // nothing sealed: snapshot already current
	}
	// Rows are immutable after apply, so shallow-copying the maps gives a
	// consistent view of everything in segments <= cut; writes landing
	// after we unlock go to the fresh live segment, which replays after
	// the snapshot.
	state := make(map[string]map[string]*row, len(s.tables))
	for tn, rows := range s.tables {
		cp := make(map[string]*row, len(rows))
		for k, r := range rows {
			cp[k] = r
		}
		state[tn] = cp
	}
	s.mu.Unlock()

	snapBytes, err := db.writeSnapshotFile(shardSnapshotFile(s.idx), cut+1, state)
	if err != nil {
		return fail(err)
	}

	s.mu.Lock()
	var victims []int
	for i, m := range s.segs {
		if i <= cut {
			out.retiredSegs++
			out.retiredBytes += m.bytes
			victims = append(victims, i)
			delete(s.segs, i)
		}
	}
	for k, tseg := range s.tombs {
		if tseg <= cut {
			delete(s.tombs, k)
		}
	}
	s.mu.Unlock()
	for _, i := range victims {
		os.Remove(filepath.Join(db.dir, segmentFile(s.idx, i)))
	}
	out.snapBytes = snapBytes
	sp.SetInt("floor", int64(cut+1))
	sp.SetInt("retired_segments", int64(out.retiredSegs))
	sp.SetInt("retired_bytes", out.retiredBytes)
	sp.SetInt("snapshot_bytes", snapBytes)
	sp.End()
	return out, nil
}

type compactOutcome struct {
	retiredSegs  int
	retiredBytes int64
	snapBytes    int64
}

// retireDead unlinks sealed segments whose entries are all superseded.
// No snapshot rewrite is needed: every superseding entry lives in a
// later, surviving segment, so replay is identical with or without the
// victim — which also makes the unlink crash-safe.
func (s *shard) retireDead() (segs int, bytes int64) {
	s.mu.Lock()
	var victims []int
	for i, m := range s.segs {
		if m.sealed && m.live == 0 {
			victims = append(victims, i)
			bytes += m.bytes
			delete(s.segs, i)
		}
	}
	s.mu.Unlock()
	for _, i := range victims {
		os.Remove(filepath.Join(s.db.dir, segmentFile(s.idx, i)))
	}
	return len(victims), bytes
}

// sealedGarbage reports the dead/total entry counts across sealed
// segments, for the compactor's threshold decision.
func (s *shard) sealedGarbage() (dead, total int64, sealed int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, m := range s.segs {
		if m.sealed {
			dead += m.entries - m.live
			total += m.entries
			sealed++
		}
	}
	return dead, total, sealed
}

func (s *shard) stats() ShardStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ss := ShardStats{Shard: s.idx, WALWrites: s.walWrites, WALSyncs: s.walSyncs}
	for _, m := range s.segs {
		ss.Segments++
		ss.Bytes += m.bytes
		ss.LiveEntries += m.live
		ss.DeadEntries += m.entries - m.live
	}
	return ss
}

// --- file names ---

func segmentFile(shard, seg int) string {
	return fmt.Sprintf("wal-%d-%06d.log", shard, seg)
}

func shardSnapshotFile(shard int) string {
	return fmt.Sprintf("snapshot-%d.db", shard)
}
