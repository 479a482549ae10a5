package blobdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// checkOneLayout asserts dir is a committed shard directory and nothing
// else: a manifest, no stock file, no temp file.
func checkOneLayout(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("no manifest: %v", err)
	}
	for _, name := range []string{walName, snapshotName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stock file %s survived the import: %v", name, err)
		}
	}
	if n := countFiles(t, dir, "snaptmp-*"); n != 0 {
		t.Fatalf("%d temp files left behind", n)
	}
}

// TestStockDirectoryImportedOnce: a directory in the retired wal.log +
// snapshot.db layout opens to the same rows, is rewritten as a shard
// directory by that Open, and is a plain replay from then on.
func TestStockDirectoryImportedOnce(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parent-stock"))
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkParentRows(t, db)
	if got := db.Stats().Shards; got != 1 {
		t.Fatalf("%d shards, want 1", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkOneLayout(t, dir)

	before := dirListing(t, dir)
	plan := installFsyncDirCounter(t)
	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkParentRows(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := plan.count(); n != 0 {
		t.Fatalf("second Open fsynced the directory %d times, want a plain replay", n)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("second Open changed the directory:\n%v\nwas\n%v", after, before)
	}
}

// TestImportSurvivesEveryDirFsyncFailure stops the import at each
// directory fsync it performs — the points where a crash could leave the
// directory between layouts — and reopens with a working disk: every row
// of the fixture is there and exactly one layout is on disk.
func TestImportSurvivesEveryDirFsyncFailure(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			plan := installFsyncDirCounter(t)
			db, err := Open(Options{Dir: copyDir(t, filepath.Join("testdata", "parent-stock")), WALShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			db.Close()
			total := plan.count()
			// One per shard snapshot (not every shard need hold rows), the
			// manifest, the unlink of the stock files.
			if total < 3 || total > shards+2 {
				t.Fatalf("a clean import fsynced the directory %d times, want 3..%d", total, shards+2)
			}
			for k := 1; k <= total; k++ {
				dir := copyDir(t, filepath.Join("testdata", "parent-stock"))
				plan.mu.Lock()
				plan.calls, plan.failAt = 0, k
				plan.mu.Unlock()
				if _, err := Open(Options{Dir: dir, WALShards: shards}); !errors.Is(err, errDirFsync) {
					t.Fatalf("fsync %d of %d failing: Open = %v, want the injected error", k, total, err)
				}
				plan.mu.Lock()
				plan.failAt = 0
				plan.mu.Unlock()
				db, err := Open(Options{Dir: dir, WALShards: shards})
				if err != nil {
					t.Fatalf("reopen after fsync %d of %d failed: %v", k, total, err)
				}
				checkParentRows(t, db)
				if got := db.Stats().Shards; got != shards {
					t.Fatalf("reopen after fsync %d: %d shards, want %d", k, got, shards)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				checkOneLayout(t, dir)
			}
		})
	}
}
