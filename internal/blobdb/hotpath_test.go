package blobdb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/metrics"
)

// TestMain runs the tests whose probe sleeps on virtual time in a
// bubble, under GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

// cachedDB opens an in-memory database with the decompressed-blob LRU
// and a probe, so tests can observe both the cache counters and the
// modelled disk/CPU accounting a hit is supposed to skip.
func cachedDB(t *testing.T, cacheBytes int64) (*DB, *metrics.Recorder) {
	t.Helper()
	rec := metrics.NewRecorder(3 * time.Second)
	db, err := Open(Options{
		Probe:          metrics.NewProbe(rec, metrics.DefaultCost()),
		BlobCacheBytes: cacheBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, rec
}

func TestBlobCacheHitSkipsLoadAndDecompress(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		db, rec := cachedDB(t, 1<<20)
		tab := db.Table("executables")
		blob := bytes.Repeat([]byte("payload "), 4096)
		if err := tab.Put("exe", nil, blob); err != nil {
			t.Fatal(err)
		}
		r1, err := tab.Get("exe")
		if err != nil {
			t.Fatal(err)
		}
		readsAfterMiss := rec.Total(metrics.DiskRead)
		cpuAfterMiss := rec.Total(metrics.CPU)
		if readsAfterMiss == 0 {
			t.Fatal("miss accounted no disk read")
		}
		r2, err := tab.Get("exe")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1.Blob, blob) || !bytes.Equal(r2.Blob, blob) {
			t.Fatal("blob corrupted through the cache")
		}
		if got := rec.Total(metrics.DiskRead); got != readsAfterMiss {
			t.Fatalf("hit accounted a disk read: %v -> %v", readsAfterMiss, got)
		}
		if got := rec.Total(metrics.CPU); got != cpuAfterMiss {
			t.Fatalf("hit accounted decompress CPU: %v -> %v", cpuAfterMiss, got)
		}
		hits, misses, size := db.BlobCacheStats()
		if hits != 1 || misses != 1 || size != int64(len(blob)) {
			t.Fatalf("stats hits=%d misses=%d size=%d", hits, misses, size)
		}
	})
}

// TestRecordBlobIsSharedAndStable pins Record.Blob's contract: hits alias
// the cache entry's one backing array (nothing is copied per read), and
// the bytes a reader holds never change — not when the row is re-Put or
// deleted, not when the LRU evicts the entry, not after Close. Readers
// keep reading what they hold while a re-publisher does all of that, so
// under -race a write into a shared slice anywhere in the engine fails
// the test even if it happens to write the same bytes.
func TestRecordBlobIsSharedAndStable(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const blobBytes = 16 << 10
		versions := [][]byte{
			bytes.Repeat([]byte("v0 payload "), blobBytes/11),
			bytes.Repeat([]byte("v1 payload "), blobBytes/11),
		}
		// Room for two blobs: the filler keys below push "k" out of the LRU.
		db, _ := cachedDB(t, 2*blobBytes)
		tab := db.Table("t")
		if err := tab.Put("k", nil, versions[0]); err != nil {
			t.Fatal(err)
		}
		miss, err := tab.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		hit, err := tab.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if &miss.Blob[0] != &hit.Blob[0] {
			t.Fatal("a hit returned a copy: the inflate buffer, the cache entry and every reader's view must be one array")
		}

		type held struct {
			blob    []byte
			version int
		}
		const readers, rounds = 4, 50
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			kept = []held{{miss.Blob, 0}, {hit.Blob, 0}}
		)
		stop := make(chan struct{})
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []held
				for {
					// A reader parks between reads, or the bubble's clock could
					// never step the re-publisher's modelled costs along.
					select {
					case <-stop:
						mu.Lock()
						kept = append(kept, mine...)
						mu.Unlock()
						return
					case <-time.After(time.Millisecond):
					}
					rec, err := tab.Get("k")
					if errors.Is(err, ErrNotFound) {
						continue // between the re-publisher's Delete and Put
					}
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					v := int(rec.Blob[1] - '0')
					if !bytes.Equal(rec.Blob, versions[v]) {
						t.Errorf("read a torn version %d", v)
						return
					}
					if len(mine) < 64 {
						mine = append(mine, held{rec.Blob, v})
					}
				}
			}()
		}
		for i := 1; i <= rounds; i++ {
			var err error
			switch i % 4 {
			case 0:
				if err = tab.Delete("k"); err == nil {
					err = tab.Put("k", nil, versions[i%2])
				}
			case 1, 3:
				err = tab.Put("k", nil, versions[i%2])
			case 2: // LRU pressure: two other rows read through the cache
				for _, filler := range []string{"f1", "f2"} {
					if err = tab.Put(filler, nil, versions[0]); err == nil {
						_, err = tab.Get(filler)
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for i, h := range kept {
			if !bytes.Equal(h.blob, versions[h.version]) {
				t.Fatalf("held blob %d (version %d) changed under its reader", i, h.version)
			}
		}
	})
}

// TestGetHitAllocationIndependentOfBlobSize is the deterministic guard
// behind the benchmark claim: a cache hit hands out the entry's slice, so
// it costs the same few small objects (metadata copy, key, Record)
// whether the blob is 1 KB or 1 MB.
func TestGetHitAllocationIndependentOfBlobSize(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		hit := func(size int) (allocs float64, bytesPerHit int64) {
			db, _ := cachedDB(t, 4<<20)
			tab := db.Table("t")
			if err := tab.Put("k", map[string]string{"owner": "alice"}, bytes.Repeat([]byte("x"), size)); err != nil {
				t.Fatal(err)
			}
			get := func() {
				if rec, err := tab.Get("k"); err != nil || len(rec.Blob) != size {
					t.Fatalf("get: %v", err)
				}
			}
			get() // populate
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, get) // runs+1 calls
			runtime.ReadMemStats(&after)
			return allocs, int64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		}
		smallAllocs, smallBytes := hit(1 << 10)
		largeAllocs, largeBytes := hit(1 << 20)
		if smallAllocs != largeAllocs {
			t.Fatalf("a hit allocates %v objects for 1 KB but %v for 1 MB", smallAllocs, largeAllocs)
		}
		if smallBytes >= 1<<10 || largeBytes >= 1<<10 {
			t.Fatalf("a hit allocates %d B (1 KB blob) / %d B (1 MB blob), want under 1 KB for both", smallBytes, largeBytes)
		}
	})
}

func TestBlobCacheInvalidatedByPut(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		db, _ := cachedDB(t, 1<<20)
		tab := db.Table("t")
		tab.Put("k", nil, []byte("v1"))
		if r, _ := tab.Get("k"); string(r.Blob) != "v1" {
			t.Fatalf("got %q", r.Blob)
		}
		tab.Put("k", nil, []byte("v2"))
		r, err := tab.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if string(r.Blob) != "v2" {
			t.Fatalf("stale cached blob served after Put: %q", r.Blob)
		}
		if err := tab.Delete("k"); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Get("k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestBlobCacheEvictsLeastRecentlyUsed(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		blob := bytes.Repeat([]byte("x"), 4<<10)
		db, _ := cachedDB(t, int64(2*len(blob)+(len(blob)/2))) // room for two and a half
		tab := db.Table("t")
		for i := 0; i < 3; i++ {
			tab.Put(fmt.Sprintf("k%d", i), nil, blob)
		}
		for i := 0; i < 3; i++ { // cache k0,k1 then k2 evicts k0
			tab.Get(fmt.Sprintf("k%d", i))
		}
		_, _, size := db.BlobCacheStats()
		if size > int64(2*len(blob)+(len(blob)/2)) {
			t.Fatalf("cache over budget: %d", size)
		}
		_, missesBefore, _ := statsHitsMisses(db)
		tab.Get("k2") // most recent: must still be a hit
		hitsAfter, missesAfter, _ := statsHitsMisses(db)
		if missesAfter != missesBefore || hitsAfter == 0 {
			t.Fatalf("recent entry evicted: hits=%d misses %d->%d", hitsAfter, missesBefore, missesAfter)
		}
		tab.Get("k0") // oldest: evicted, so a miss
		_, missesFinal, _ := statsHitsMisses(db)
		if missesFinal != missesAfter+1 {
			t.Fatalf("LRU tail not evicted: misses %d->%d", missesAfter, missesFinal)
		}
	})
}

func statsHitsMisses(db *DB) (int64, int64, int64) { return db.BlobCacheStats() }

func TestBlobCacheSkipsOversizedBlob(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		db, _ := cachedDB(t, 1<<10)
		tab := db.Table("t")
		tab.Put("big", nil, bytes.Repeat([]byte("x"), 4<<10))
		tab.Get("big")
		tab.Get("big")
		hits, _, size := db.BlobCacheStats()
		if hits != 0 || size != 0 {
			t.Fatalf("oversized blob cached: hits=%d size=%d", hits, size)
		}
	})
}

func TestGroupCommitRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	const writers, puts = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := tab.Put(key, map[string]string{"w": key}, []byte("blob-"+key)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	writes, syncs := db.WALStats()
	if writes < 1 || syncs < 1 || writes != syncs {
		t.Fatalf("wal stats writes=%d syncs=%d", writes, syncs)
	}
	if writes > int64(writers*puts) {
		t.Fatalf("more WAL writes (%d) than puts (%d)", writes, writers*puts)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := diskDB(t, dir)
	defer re.Close()
	if got := re.Table("t").Len(); got != writers*puts {
		t.Fatalf("reopened with %d rows, want %d", got, writers*puts)
	}
	r, err := re.Table("t").Get("w3-k7")
	if err != nil || string(r.Blob) != "blob-w3-k7" || r.Meta["w"] != "w3-k7" {
		t.Fatalf("record %+v err %v", r, err)
	}
}

func TestGroupCommitAckImpliesCrashDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	for i := 0; i < 10; i++ {
		if err := tab.Put(fmt.Sprintf("k%d", i), nil, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: reopen from disk WITHOUT closing. Every
	// acknowledged Put was fsynced before its commit returned, so all ten
	// must replay. (The stock path only guarantees this after Close.)
	crashed := diskDB(t, dir)
	if got := crashed.Table("t").Len(); got != 10 {
		t.Fatalf("crash replay recovered %d rows, want 10", got)
	}
	crashed.Close()
	db.Close()
}

func TestGroupCommitDelete(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := db.Table("t")
	if err := tab.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	tab.Put("k", nil, []byte("v"))
	if err := tab.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestGroupCommitSurvivesCompact(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				compact(db)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := tab.Put(fmt.Sprintf("k%d", i), nil, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := compact(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := diskDB(t, dir)
	defer re.Close()
	if got := re.Table("t").Len(); got != 50 {
		t.Fatalf("recovered %d rows, want 50", got)
	}
}

func TestGroupCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Table("t").Put("k", nil, []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestStockWALStatsCountPerPutWrites(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Close()
	tab := db.Table("t")
	for i := 0; i < 5; i++ {
		if err := tab.Put(fmt.Sprintf("k%d", i), nil, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	writes, syncs := db.WALStats()
	if writes != 5 || syncs != 0 {
		t.Fatalf("stock wal stats writes=%d syncs=%d, want 5/0", writes, syncs)
	}
}
