package blobdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// faultFile wraps a real WAL file and injects errors on demand.
type faultFile struct {
	f     *os.File
	fault *faultPlan
}

// faultPlan is shared by every file the plan wraps; tests flip the error
// fields between operations. opens and closes count the files wrapped
// and the Close calls they received.
type faultPlan struct {
	mu        sync.Mutex
	syncErr   error
	closeErr  error
	syncCalls int
	opens     int
	closes    int
}

func (p *faultPlan) set(syncErr, closeErr error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncErr, p.closeErr = syncErr, closeErr
}

func (ff *faultFile) Write(b []byte) (int, error) { return ff.f.Write(b) }

func (ff *faultFile) Sync() error {
	ff.fault.mu.Lock()
	err := ff.fault.syncErr
	ff.fault.syncCalls++
	ff.fault.mu.Unlock()
	if err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	ff.fault.mu.Lock()
	err := ff.fault.closeErr
	ff.fault.closes++
	ff.fault.mu.Unlock()
	cerr := ff.f.Close()
	if err != nil {
		return err
	}
	return cerr
}

// installFaultPlan reroutes newWALFile through a faultFile for the
// duration of the test.
func installFaultPlan(t *testing.T) *faultPlan {
	t.Helper()
	plan := &faultPlan{}
	prev := newWALFile
	newWALFile = func(f *os.File) walFile {
		plan.mu.Lock()
		plan.opens++
		plan.mu.Unlock()
		return &faultFile{f: f, fault: plan}
	}
	t.Cleanup(func() { newWALFile = prev })
	return plan
}

// installFsyncDirCounter reroutes fsyncDir through a counter with an
// injectable error: every call fails with err while it is set, and the
// failAt-th call (1-based) fails with errDirFsync.
type dirFsyncPlan struct {
	mu     sync.Mutex
	calls  int
	err    error
	failAt int
}

var errDirFsync = errors.New("dir fsync boom")

func installFsyncDirCounter(t *testing.T) *dirFsyncPlan {
	t.Helper()
	plan := &dirFsyncPlan{}
	prev := fsyncDir
	fsyncDir = func(dir string) error {
		plan.mu.Lock()
		plan.calls++
		err := plan.err
		if plan.calls == plan.failAt {
			err = errDirFsync
		}
		plan.mu.Unlock()
		if err != nil {
			return err
		}
		return prev(dir)
	}
	t.Cleanup(func() { fsyncDir = prev })
	return plan
}

func (p *dirFsyncPlan) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func (p *dirFsyncPlan) setErr(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.err = err
}

// TestCompactFsyncsDirectory: Compact must fsync the directory after the
// snapshot rename, and must surface an injected directory-fsync failure
// instead of retiring segments on top of a rename that may not be
// durable.
func TestCompactFsyncsDirectory(t *testing.T) {
	plan := installFsyncDirCounter(t)
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Table("t").Put("k", nil, []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := plan.count()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if plan.count() <= before {
		t.Fatal("Compact did not fsync the directory after its rename")
	}
	// Something to fold: a Compact with nothing sealed touches no file.
	if err := db.Table("t").Put("k1", nil, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	plan.setErr(errDirFsync)
	if err := db.Compact(); !errors.Is(err, errDirFsync) {
		t.Fatalf("Compact error = %v, want injected %v", err, errDirFsync)
	}
	plan.setErr(nil)
	// The failed compact must leave the store serving and durable.
	if err := db.Table("t").Put("k2", nil, []byte("v2")); err != nil {
		t.Fatalf("put after failed compact: %v", err)
	}
}

// TestSegmentRollFsyncsDirectory: sealing a segment fsyncs the directory
// so the new segment file's existence survives a crash.
func TestSegmentRollFsyncsDirectory(t *testing.T) {
	plan := installFsyncDirCounter(t)
	db, err := Open(Options{Dir: t.TempDir(), WALShards: 2, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := db.Table("t")
	if err := tab.Put("a", nil, []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := plan.count()
	// SegmentBytes 1: the next put to the same shard must roll first.
	if err := tab.Put("a", nil, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if plan.count() <= before {
		t.Fatal("segment roll did not fsync the directory")
	}
}

// TestCloseSyncErrorPoisons pins the shutdown satellite: a failing WAL
// Sync at Close must propagate (first error wins over the follow-up
// Close) and leave the database poisoned — ErrClosed everywhere, nil on
// a second Close.
func TestCloseSyncErrorPoisons(t *testing.T) {
	plan := installFaultPlan(t)
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	if err := tab.Put("k", nil, []byte("v")); err != nil {
		t.Fatal(err)
	}
	syncBoom := errors.New("sync boom")
	closeBoom := errors.New("close boom")
	plan.set(syncBoom, closeBoom)
	if err := db.Close(); !errors.Is(err, syncBoom) {
		t.Fatalf("Close = %v, want first error %v", err, syncBoom)
	}
	if err := tab.Put("k2", nil, []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after failed Close = %v, want ErrClosed", err)
	}
	if _, err := tab.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after failed Close = %v, want ErrClosed", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after failed Close = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestCloseCloseErrorPropagates: when Sync succeeds but the file Close
// fails, that error surfaces too.
func TestCloseCloseErrorPropagates(t *testing.T) {
	plan := installFaultPlan(t)
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Table("t").Put("k", nil, []byte("v")); err != nil {
		t.Fatal(err)
	}
	closeBoom := errors.New("close boom")
	plan.set(nil, closeBoom)
	if err := db.Close(); !errors.Is(err, closeBoom) {
		t.Fatalf("Close = %v, want %v", err, closeBoom)
	}
}

// TestCloseSyncErrorPoisonsSharded: the first failing shard's error wins
// and every shard ends up poisoned.
func TestCloseSyncErrorPoisonsSharded(t *testing.T) {
	plan := installFaultPlan(t)
	db, err := Open(Options{Dir: t.TempDir(), WALShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		if err := tab.Put(k, nil, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	syncBoom := errors.New("sync boom")
	plan.set(syncBoom, nil)
	if err := db.Close(); !errors.Is(err, syncBoom) {
		t.Fatalf("Close = %v, want %v", err, syncBoom)
	}
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		if err := tab.Put(k, nil, []byte("w")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Put(%s) after failed Close = %v, want ErrClosed", k, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestOpenFailureClosesReplayedShards: shards replay in parallel and each
// ends by opening its live segment, so when one of them is corrupt the
// others' handles must be closed before Open returns its error.
func TestOpenFailureClosesReplayedShards(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Table("t").Put(fmt.Sprintf("k%02d", i), nil, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Garble shard 2's first entry behind its length prefix: bad JSON with
	// whole entries after it is corruption, not a torn tail.
	path := filepath.Join(dir, segmentFile(2, 0))
	offs, _ := entryOffsets(t, path)
	if len(offs) < 2 {
		t.Fatalf("shard 2 holds %d entries, want >= 2", len(offs))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(4); i < offs[0]; i++ {
		raw[i] ^= 0x55
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	plan := installFaultPlan(t)
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	plan.mu.Lock()
	defer plan.mu.Unlock()
	if plan.opens != 3 || plan.closes != plan.opens {
		t.Fatalf("failed Open opened %d live segments and closed %d, want 3 and 3", plan.opens, plan.closes)
	}
}

// TestCompactorCountsFailedSnapshots: a disk that cannot take a snapshot
// must show in CompactorStats.Failures, keep its segments, and lose them
// to the next sweep that works.
func TestCompactorCountsFailedSnapshots(t *testing.T) {
	plan := installFsyncDirCounter(t)
	dir := t.TempDir()
	// The compactor exists but its ticker never fires: the test sweeps.
	db, err := Open(Options{Dir: dir, AutoCompact: true, CompactEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One sealed segment, three of its five entries dead but not all of
	// them (retireDead alone frees nothing), and an empty live one, so the
	// only directory fsync a sweep performs is the snapshot's.
	tab, s := db.Table("t"), db.shards[0]
	for _, k := range []string{"a", "a", "a", "a", "b"} {
		if err := tab.Put(k, nil, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	err = s.roll()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	plan.setErr(errDirFsync)
	db.comp.sweep()
	st := db.Stats()
	if st.Compactor.Failures != 1 || st.Compactor.SegmentsRetired != 0 || st.Segments != 2 {
		t.Fatalf("after a failed snapshot: %+v, %d segments; want 1 failure, nothing retired, 2 segments", st.Compactor, st.Segments)
	}
	if n := countFiles(t, dir, "wal-0-*.log"); n != 2 {
		t.Fatalf("%d segment files after a failed snapshot, want 2", n)
	}
	plan.setErr(nil)
	db.comp.sweep()
	st = db.Stats()
	if st.Compactor.Failures != 1 || st.Compactor.SegmentsRetired != 1 || st.Compactor.Snapshots != 1 {
		t.Fatalf("after the healthy sweep: %+v, want the sealed segment retired by 1 snapshot", st.Compactor)
	}
	if n := countFiles(t, dir, "wal-0-*.log"); n != 1 {
		t.Fatalf("%d segment files after the healthy sweep, want the live one", n)
	}
	if got := tab.Len(); got != 2 {
		t.Fatalf("%d rows, want 2", got)
	}
}
