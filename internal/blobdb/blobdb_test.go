package blobdb

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

func memDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func diskDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetRoundTrip(t *testing.T) {
	db := memDB(t)
	tab := db.Table("executables")
	blob := bytes.Repeat([]byte("grid job payload "), 1000)
	meta := map[string]string{"owner": "alice", "desc": "demo"}
	if err := tab.Put("exe-1", meta, blob); err != nil {
		t.Fatal(err)
	}
	rec, err := tab.Get("exe-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Blob, blob) {
		t.Fatal("blob corrupted")
	}
	if rec.Meta["owner"] != "alice" {
		t.Fatalf("meta %v", rec.Meta)
	}
	if rec.CompressedSize <= 0 || rec.CompressedSize >= len(blob) {
		t.Fatalf("compression ineffective: %d of %d", rec.CompressedSize, len(blob))
	}
}

func TestGetMissing(t *testing.T) {
	db := memDB(t)
	if _, err := db.Table("t").Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	db := memDB(t)
	if err := db.Table("t").Put("", nil, nil); !errors.Is(err, ErrBadrecord) {
		t.Fatalf("got %v", err)
	}
	if err := db.Table("t").Put("k", nil, make([]byte, MaxBlobBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestPutReplaces(t *testing.T) {
	db := memDB(t)
	tab := db.Table("t")
	tab.Put("k", nil, []byte("v1"))
	tab.Put("k", nil, []byte("v2"))
	rec, err := tab.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Blob) != "v2" {
		t.Fatalf("blob %q", rec.Blob)
	}
	if tab.Len() != 1 {
		t.Fatalf("len %d", tab.Len())
	}
}

func TestDelete(t *testing.T) {
	db := memDB(t)
	tab := db.Table("t")
	tab.Put("k", nil, []byte("v"))
	if err := tab.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if err := tab.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStatSkipsBlob(t *testing.T) {
	db := memDB(t)
	tab := db.Table("t")
	tab.Put("k", map[string]string{"a": "b"}, []byte("payload"))
	rec, err := tab.Stat("k")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Blob != nil {
		t.Fatal("stat returned blob")
	}
	if rec.Meta["a"] != "b" || rec.CompressedSize == 0 {
		t.Fatalf("stat %+v", rec)
	}
	if _, err := tab.Stat("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestKeysAndTableNames(t *testing.T) {
	db := memDB(t)
	db.Table("b").Put("2", nil, nil)
	db.Table("b").Put("1", nil, nil)
	db.Table("a").Put("x", nil, nil)
	if got := db.Table("b").Keys(); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("keys %v", got)
	}
	if got := db.TableNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("tables %v", got)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	blob := bytes.Repeat([]byte("x"), 10_000)
	db.Table("exe").Put("k1", map[string]string{"n": "1"}, blob)
	db.Table("exe").Put("k2", nil, []byte("small"))
	db.Table("exe").Delete("k2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	rec, err := db2.Table("exe").Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Blob, blob) || rec.Meta["n"] != "1" {
		t.Fatal("record lost across reopen")
	}
	if _, err := db2.Table("exe").Get("k2"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted record resurrected")
	}
}

func TestCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	for i := 0; i < 20; i++ {
		db.Table("t").Put(string(rune('a'+i)), nil, bytes.Repeat([]byte{byte(i)}, 100))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compact writes land in the fresh WAL.
	db.Table("t").Put("post", nil, []byte("after compact"))
	db.Close()

	wal, err := os.Stat(liveSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if wal.Size() == 0 {
		t.Fatal("post-compact write missing from wal")
	}
	db2 := diskDB(t, dir)
	defer db2.Close()
	if db2.Table("t").Len() != 21 {
		t.Fatalf("recovered %d rows, want 21", db2.Table("t").Len())
	}
	rec, err := db2.Table("t").Get("post")
	if err != nil || string(rec.Blob) != "after compact" {
		t.Fatalf("post-compact record: %v", err)
	}
}

func TestTornWALTailTolerated(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	db.Table("t").Put("good", nil, []byte("v"))
	db.Close()
	// Simulate a crash mid-append: write a partial entry.
	f, err := os.OpenFile(liveSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 1, 0, 'p', 'a', 'r'})
	f.Close()
	db2 := diskDB(t, dir)
	defer db2.Close()
	if _, err := db2.Table("t").Get("good"); err != nil {
		t.Fatalf("good record lost: %v", err)
	}
}

func TestCorruptWALEntryReported(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	db.Table("t").Put("good", nil, []byte("v"))
	db.Close()
	// Corrupt the middle of the log: valid length, garbage JSON, then the
	// file continues, so this is not a torn tail.
	path := liveSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < len(data)-4; i++ {
		data[i] ^= 0x55
	}
	os.WriteFile(path, data, 0o644)
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v", err)
	}
}

func TestClosedDB(t *testing.T) {
	db := memDB(t)
	db.Close()
	if err := db.Table("t").Put("k", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if _, err := db.Table("t").Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if _, err := db.Table("t").Stat("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if err := db.Table("t").Delete("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestAccounting(t *testing.T) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	db, err := Open(Options{Probe: probe, Cost: metrics.Cost{CompressBps: 1 << 20, DecompressBps: 4 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	blob := make([]byte, 1<<20)
	db.Table("t").Put("k", nil, blob) // 1 MiB at 1 MiB/s = ~1s CPU
	if got := time.Duration(rec.Total(metrics.CPU)); got < 800*time.Millisecond {
		t.Fatalf("compression CPU %v", got)
	}
	if rec.Total(metrics.DiskWrite) == 0 {
		t.Fatal("disk write not accounted")
	}
	before := rec.Total(metrics.CPU)
	if _, err := db.Table("t").Get("k"); err != nil {
		t.Fatal(err)
	}
	if rec.Total(metrics.CPU) <= before {
		t.Fatal("decompression CPU not accounted")
	}
	if rec.Total(metrics.DiskRead) == 0 {
		t.Fatal("disk read not accounted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := memDB(t)
	tab := db.Table("t")
	done := make(chan error, 64)
	for i := 0; i < 32; i++ {
		key := string(rune('a' + i%26))
		go func() { done <- tab.Put(key, nil, []byte(key)) }()
		go func() {
			_, err := tab.Get(key)
			if errors.Is(err, ErrNotFound) {
				err = nil // racing with the put is fine
			}
			done <- err
		}()
	}
	for i := 0; i < 64; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Property: store/load identity for arbitrary blobs and metadata.
func TestPropertyStoreLoadIdentity(t *testing.T) {
	db := memDB(t)
	tab := db.Table("p")
	f := func(key string, blob []byte, mk, mv string) bool {
		if key == "" {
			key = "k"
		}
		if err := tab.Put(key, map[string]string{mk: mv}, blob); err != nil {
			return false
		}
		rec, err := tab.Get(key)
		if err != nil {
			return false
		}
		return bytes.Equal(rec.Blob, blob) && rec.Meta[mk] == mv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: persistence identity — everything written before Close is
// readable after reopen.
func TestPropertyPersistenceIdentity(t *testing.T) {
	f := func(blobs [][]byte) bool {
		if len(blobs) > 8 {
			blobs = blobs[:8]
		}
		dir, err := os.MkdirTemp("", "blobdb-prop-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		db, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		for i, b := range blobs {
			if err := db.Table("t").Put(key(i), nil, b); err != nil {
				return false
			}
		}
		db.Close()
		db2, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		defer db2.Close()
		for i, b := range blobs {
			rec, err := db2.Table("t").Get(key(i))
			if err != nil || !bytes.Equal(rec.Blob, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func key(i int) string { return "k" + string(rune('0'+i)) }

func TestStoredAtUsesClock(t *testing.T) {
	clk := vtime.NewManual(time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC))
	db, err := Open(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Table("t").Put("k", nil, nil)
	rec, _ := db.Table("t").Stat("k")
	if !rec.StoredAt.Equal(clk.Now()) {
		t.Fatalf("stored at %v", rec.StoredAt)
	}
}
