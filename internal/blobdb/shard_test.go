package blobdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func countFiles(t *testing.T, dir, pattern string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestShardedRoundTripAndReopen: basic CRUD across shards, with the
// merged Keys/Len/TableNames views, surviving a clean reopen.
func TestShardedRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(Options{Dir: dir, WALShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tab := db.Table("exe")
	var keys []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("svc-%02d", i)
		keys = append(keys, k)
		if err := tab.Put(k, map[string]string{"i": fmt.Sprint(i)}, []byte("blob-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Delete("svc-07"); err != nil {
		t.Fatal(err)
	}
	if err := db.Table("other").Put("x", nil, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := tab.Len(); got != 39 {
		t.Fatalf("Len = %d, want 39", got)
	}
	if names := db.TableNames(); !reflect.DeepEqual(names, []string{"exe", "other"}) {
		t.Fatalf("TableNames = %v", names)
	}
	st := db.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.WALWrites == 0 {
		t.Fatal("no WAL writes recorded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	tab = db.Table("exe")
	for _, k := range keys {
		rec, err := tab.Get(k)
		if k == "svc-07" {
			if err == nil {
				t.Fatalf("deleted key %s resurrected", k)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(rec.Blob) != "blob-"+k {
			t.Fatalf("Get(%s) = %q", k, rec.Blob)
		}
	}
	got := tab.Keys()
	if len(got) != 39 {
		t.Fatalf("Keys len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Keys not sorted: %v", got)
		}
	}
}

// TestShardedSegmentsRollAndRecover: a tiny SegmentBytes forces rolls;
// the multi-segment layout must replay completely.
func TestShardedSegmentsRollAndRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALShards: 2, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	for i := 0; i < 50; i++ {
		if err := tab.Put(fmt.Sprintf("k%02d", i), nil, []byte("some payload to push past the limit")); err != nil {
			t.Fatal(err)
		}
	}
	if n := countFiles(t, dir, "wal-*-*.log"); n < 4 {
		t.Fatalf("only %d segment files, want rolls", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir, WALShards: 2, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Table("t").Len(); got != 50 {
		t.Fatalf("Len after reopen = %d, want 50", got)
	}
}

// TestManualCompactShardedRetiresSegments: compact on a sharded store
// folds each shard to a snapshot and unlinks the covered segments.
func TestManualCompactShardedRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALShards: 2, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	for round := 0; round < 20; round++ {
		for i := 0; i < 5; i++ {
			if err := tab.Put(fmt.Sprintf("k%d", i), nil, []byte(fmt.Sprintf("round %d payload padding", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := countFiles(t, dir, "wal-*-*.log")
	if before < 3 {
		t.Fatalf("expected several segments before compact, got %d", before)
	}
	if err := compact(db); err != nil {
		t.Fatal(err)
	}
	// Each shard keeps exactly its fresh live segment.
	if after := countFiles(t, dir, "wal-*-*.log"); after != 2 {
		t.Fatalf("segments after compact = %d, want 2", after)
	}
	if snaps := countFiles(t, dir, "snapshot-*.db"); snaps == 0 {
		t.Fatal("no shard snapshots written")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir, WALShards: 2, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		rec, err := db.Table("t").Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Blob) != "round 19 payload padding" {
			t.Fatalf("k%d = %q, want final round", i, rec.Blob)
		}
	}
}

// TestAutoCompactRetiresDeadSegmentsUnderTraffic: with overwrite-heavy
// traffic the background compactor must reclaim sealed garbage while
// the store keeps serving, and the surviving layout must replay.
func TestAutoCompactRetiresDeadSegmentsUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WALShards: 2, SegmentBytes: 512,
		AutoCompact: true, CompactEvery: 2 * time.Millisecond}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < 4; i++ {
			if err := tab.Put(fmt.Sprintf("k%d", i), nil, []byte("overwrite payload with some padding")); err != nil {
				t.Fatal(err)
			}
		}
		st := db.Stats()
		if st.Compactor.SegmentsRetired > 0 && st.Compactor.Runs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never retired a segment: %+v", st.Compactor)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Table("t").Len(); got != 4 {
		t.Fatalf("Len after reopen = %d, want 4", got)
	}
}

// TestShardCountFollowsManifest: the shard count is a property of the
// directory. Whatever a later Open asks for, it gets the count the
// directory was created with — no error, no re-sharding, no file touched.
func TestShardCountFollowsManifest(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := db.Table("t").Put(k, nil, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	for _, ask := range []int{0, 1, 16} {
		db, err := Open(Options{Dir: dir, WALShards: ask})
		if err != nil {
			t.Fatalf("WALShards %d: %v", ask, err)
		}
		if got := db.Stats().Shards; got != 4 {
			t.Fatalf("WALShards %d: %d shards, want the manifest's 4", ask, got)
		}
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("k%02d", i)
			if rec, err := db.Table("t").Get(k); err != nil || string(rec.Blob) != "v-"+k {
				t.Fatalf("WALShards %d: Get(%s) = %v, %v", ask, k, rec, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("WALShards %d: directory changed:\n%v\nwas\n%v", ask, after, before)
		}
	}
}

// dirListing renders dir's entries as "name size", sorted by name.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %d", fi.Name(), fi.Size()))
	}
	return out
}

// TestParseSegmentName: only the spelling segmentFile produces is a
// segment. The unpadded one used to be accepted too, and recovery then
// went looking for the padded file it implied.
func TestParseSegmentName(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shard, seg int
		ok         bool
	}{
		{"wal-0-000001.log", 0, 1, true},
		{"wal-12-1234567.log", 12, 1234567, true},
		{"wal-0-1.log", 0, 0, false},
		{"wal-00-000001.log", 0, 0, false},
		{"wal-0-000001.log.bak", 0, 0, false},
		{"wal-0-000001.logx", 0, 0, false},
		{"wal--1-000001.log", 0, 0, false},
		{"wal.log", 0, 0, false},
	} {
		shard, seg, ok := parseSegmentName(tc.name)
		if shard != tc.shard || seg != tc.seg || ok != tc.ok {
			t.Errorf("parseSegmentName(%q) = %d, %d, %v; want %d, %d, %v", tc.name, shard, seg, ok, tc.shard, tc.seg, tc.ok)
		}
	}
	// And recovery says so instead of failing to open a file nobody named.
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.WriteFile(filepath.Join(dir, "wal-0-1.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unexpected wal file wal-0-1.log") {
		t.Fatalf("Open beside wal-0-1.log = %v, want ErrCorrupt naming it", err)
	}
}

// TestShardedGroupCommitCrashDurability: per-shard committers must make
// every acked put durable — reopen without Close, nothing acked is lost.
func TestShardedGroupCommitCrashDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALShards: 4, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, per = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tab := db.Table("t")
			for i := 0; i < per; i++ {
				if err := tab.Put(fmt.Sprintf("w%d-k%d", w, i), nil, []byte("payload")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, syncs := db.WALStats(); syncs == 0 {
		t.Fatal("group commit never synced")
	}
	// Crash: no Close. Acked means synced, so everything must replay.
	db2, err := Open(Options{Dir: dir, WALShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Table("t").Len(); got != writers*per {
		t.Fatalf("Len after crash-reopen = %d, want %d", got, writers*per)
	}
}

// TestConcurrentShardedOpsWithCompactor is the race-gate satellite:
// writers, readers, and the background compactor all live on the same
// store at once; afterwards the acked state must survive a reopen.
func TestConcurrentShardedOpsWithCompactor(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WALShards: 4, SegmentBytes: 1024,
		AutoCompact: true, CompactEvery: time.Millisecond, GroupCommit: true}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tab := db.Table("t")
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("k%d", (w*40+i)%keys)
				if err := tab.Put(k, nil, []byte(fmt.Sprintf("w%d i%d padding padding", w, i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := db.Table("t")
			for i := 0; i < 80; i++ {
				k := fmt.Sprintf("k%d", i%keys)
				if _, err := tab.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("get: %v", err)
					return
				}
				tab.Keys()
				db.Stats()
			}
		}()
	}
	wg.Wait()
	if err := compact(db); err != nil { // manual compact racing the background one
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Table("t").Len(); got != keys {
		t.Fatalf("Len after reopen = %d, want %d", got, keys)
	}
}

// TestCloseRacesCompaction: Close fired while puts are in flight and the
// compactor is sweeping must neither panic nor corrupt the store, and
// every put acked before Close must survive.
func TestCloseRacesCompaction(t *testing.T) {
	for round := 0; round < 8; round++ {
		dir := t.TempDir()
		// A segment holds a few ~490-byte entries, so a sealed one can be
		// partly dead and earn a snapshot, not only be retired whole.
		opts := Options{Dir: dir, WALShards: 2, SegmentBytes: 2048,
			AutoCompact: true, CompactEvery: time.Millisecond}
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		var acked sync.Map
		var wg, started sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			started.Add(1)
			go func(w int) {
				defer wg.Done()
				var first sync.Once
				defer first.Do(started.Done)
				tab := db.Table("t")
				for i := 0; ; i++ {
					k := fmt.Sprintf("w%d-k%d", w, i%10)
					err := tab.Put(k, nil, []byte("payload under closing store"))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("put: %v", err)
						return
					}
					acked.Store(k, true)
					first.Do(started.Done)
				}
			}(w)
		}
		// Close once every writer has acked a put and the compactor has
		// snapshotted a shard, so the close overlaps both.
		started.Wait()
		for db.Stats().Compactor.Snapshots == 0 {
			runtime.Gosched()
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wg.Wait()
		db2, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen after racy close: %v", err)
		}
		tab := db2.Table("t")
		acked.Range(func(k, _ any) bool {
			if _, err := tab.Stat(k.(string)); err != nil {
				t.Errorf("acked key %v lost: %v", k, err)
				return false
			}
			return true
		})
		db2.Close()
	}
}
