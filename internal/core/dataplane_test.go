package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/gsh"
)

// TestSetStageInKeepsTheStoredExecutable: declaring stage-in files is a
// metadata rewrite. The row behaves as after a Put of the same blob —
// fresh StoredAt, same CompressedSize, same bytes — but the stored gzip
// stream is reused, not inflated and compressed again.
func TestSetStageInKeepsTheStoredExecutable(t *testing.T) {
	f := newFixture(t, nil)
	program := gsh.Pad([]byte("process corpus.txt 1000\necho counted\n"), 256<<10)
	if _, err := f.ons.UploadAndGenerate("alice", "wordcount.gsh", "counts words", nil, program); err != nil {
		t.Fatal(err)
	}
	tab := f.parts.DB.Table(ExecutablesTable)
	before, err := tab.Stat("WordcountService")
	if err != nil {
		t.Fatal(err)
	}
	gzBefore, _, _ := tab.GetCompressed("WordcountService")

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := f.ons.SetStageIn("WordcountService", []string{"corpus.txt", "stop.txt"}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if spent := m1.TotalAlloc - m0.TotalAlloc; spent > uint64(len(program))/4 {
		t.Errorf("SetStageIn allocated %d B on a %d B executable: it is moving the blob again", spent, len(program))
	}

	rec, err := tab.Get("WordcountService")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Blob, program) {
		t.Fatal("executable bytes changed")
	}
	if rec.CompressedSize != before.CompressedSize {
		t.Fatalf("CompressedSize %d -> %d", before.CompressedSize, rec.CompressedSize)
	}
	if !rec.StoredAt.After(before.StoredAt) {
		t.Fatalf("StoredAt %v did not advance past %v", rec.StoredAt, before.StoredAt)
	}
	if gzAfter, _, _ := tab.GetCompressed("WordcountService"); &gzAfter[0] != &gzBefore[0] {
		t.Fatal("stored gzip stream was rebuilt")
	}
	want := map[string]string{"owner": "alice", "description": "counts words", "file_name": "wordcount.gsh",
		"params": before.Meta["params"], "stage_in": "corpus.txt,stop.txt"}
	if len(rec.Meta) != len(want) {
		t.Fatalf("meta %v", rec.Meta)
	}
	for k, v := range want {
		if rec.Meta[k] != v {
			t.Fatalf("meta[%q] = %q, want %q", k, rec.Meta[k], v)
		}
	}
	info, err := f.ons.ServiceInfo("WordcountService")
	if err != nil || len(info.StageIn) != 2 {
		t.Fatalf("info %+v err %v", info, err)
	}
}

// TestStagingSharesStoredStreamWhileRepublished pins the read-only
// contract of GetCompressed's result under the race detector: eight
// goroutines stage one service through the placement scorer and the
// chunked uploader — both slice the row's own gzip stream — while the
// row is re-published (new blob, new metadata), the WAL encoder reads it
// and the compactor snapshots it. Nobody may write to a shared slice;
// every invocation must still run the version it loaded.
func TestStagingSharesStoredStreamWhileRepublished(t *testing.T) {
	db, err := blobdb.Open(blobdb.Options{
		Dir: t.TempDir(), WALShards: 2, GroupCommit: true, AutoCompact: true,
		SegmentBytes: 256 << 10, CompactEvery: 20 * time.Millisecond, BlobCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	f := newFixtureDB(t, db, nil, nil, func(cfg *Config) {
		// At the fixture's 20000x dilation the default hour is 180 real
		// milliseconds, which a loaded -race run can exceed.
		cfg.InvocationTimeout = 160 * time.Hour
		cfg.ProxyLifetime = 160 * time.Hour
		cfg.SessionCache = true
		cfg.StatsTTL = time.Hour
		cfg.ChunkedStaging = true
		cfg.ChunkBytes = 4 << 10
		cfg.WireCompression = true
		cfg.DataAwarePlacement = true
	})
	// Two versions of one length, as a re-published benchmark program has:
	// only the row generation tells storedGzip whose stream it is reading.
	versions := [][]byte{
		gsh.Pad([]byte("echo v1\n"), 48<<10),
		gsh.Pad([]byte("echo v2\n"), 48<<10),
	}
	if len(versions[0]) != len(versions[1]) {
		t.Fatalf("versions are %d and %d bytes, want equal", len(versions[0]), len(versions[1]))
	}
	if _, err := f.ons.UploadAndGenerate("alice", "shared.gsh", "", nil, versions[0]); err != nil {
		t.Fatal(err)
	}
	tab := db.Table(ExecutablesTable)
	meta, err := tab.Stat("SharedService")
	if err != nil {
		t.Fatal(err)
	}

	// Every goroutine stages; between its own invocations a quarter of
	// them install a new version and a quarter rewrite the metadata, so
	// re-publishes always land while other goroutines are mid-staging —
	// and the work is bounded, which a free-running publisher is not.
	const stagers, rounds = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < stagers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				out, err := f.ons.ExecuteAndWait("SharedService", nil)
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if out != "v1\n" && out != "v2\n" {
					t.Errorf("output %q is neither version", out)
				}
				switch g % 4 {
				case 0:
					err = tab.Put("SharedService", meta.Meta, versions[(i+1)%2])
				case 1:
					err = tab.SetMeta("SharedService", meta.Meta)
				}
				if err != nil {
					t.Errorf("re-publish: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := f.ons.StageStats(); st.ChunkedUploads == 0 || st.Fallbacks != 0 {
		t.Fatalf("the chunked path did not carry the staging: %+v", st)
	}
}
