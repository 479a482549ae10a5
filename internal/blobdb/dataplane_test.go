package blobdb

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vtime"
)

// bytesPerOp is testing.Benchmark's AllocedBytesPerOp of f.
func bytesPerOp(f func()) int64 {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	}).AllocedBytesPerOp()
}

// --- byte budgets: each representation of a blob is allocated once ---

func TestGetMissByteBudget(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const rawSize = 1 << 20
	tab := db.Table("t")
	blob := benchBlob(rawSize)
	if err := tab.Put("k", nil, blob); err != nil {
		t.Fatal(err)
	}
	got := bytesPerOp(func() {
		rec, err := tab.Get("k")
		if err != nil || len(rec.Blob) != len(blob) {
			t.Fatalf("get: %v", err)
		}
	})
	if limit := int64(len(blob)) * 5 / 4; got > limit {
		t.Fatalf("Get miss allocates %d B for a %d B blob, budget %d (one inflate buffer)", got, len(blob), limit)
	}
}

func TestGetCompressedAllocatesNothing(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := db.Table("t")
	if err := tab.Put("k", nil, benchBlob(64<<10)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := tab.GetCompressed("k"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GetCompressed allocates %v objects per call, want 0", allocs)
	}
}

func TestPutMemoryByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds the gzip writer under -race")
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := db.Table("t")
	blob := benchBlob(256 << 10)
	if err := tab.Put("k", nil, blob); err != nil {
		t.Fatal(err)
	}
	st, err := tab.Stat("k")
	if err != nil {
		t.Fatal(err)
	}
	got := bytesPerOp(func() {
		if err := tab.Put("k", nil, blob); err != nil {
			t.Fatal(err)
		}
	})
	if limit := int64(st.CompressedSize) + 64<<10; got > limit {
		t.Fatalf("Put allocates %d B for a %d B gzip stream, budget %d (one clone)", got, st.CompressedSize, limit)
	}
}

// --- GetCompressed hands out the row's own slice ---

func TestGetCompressedAliasesImmutableRow(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := db.Table("t")
	if err := tab.Put("k", nil, []byte("version one")); err != nil {
		t.Fatal(err)
	}
	first, _, err := tab.GetCompressed("k")
	if err != nil {
		t.Fatal(err)
	}
	again, _, _ := tab.GetCompressed("k")
	if &first[0] != &again[0] {
		t.Fatal("GetCompressed copied the stored stream")
	}
	snapshot := bytes.Clone(first)
	// A re-publish installs a new row; the slice a reader still holds
	// is never written to.
	if err := tab.Put("k", nil, []byte("version two, longer")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, snapshot) {
		t.Fatal("re-publish wrote into the slice an earlier reader holds")
	}
	second, rawSize, _ := tab.GetCompressed("k")
	if rawSize != len("version two, longer") || bytes.Equal(second, first) {
		t.Fatalf("re-publish not visible: rawSize %d", rawSize)
	}
}

// TestGenerationIdentifiesRowVersion: every read path reports the same
// generation for one row version, and any write of the key — even a
// re-Put of a blob of the same length, which sizes cannot tell apart —
// installs a higher one.
func TestGenerationIdentifiesRowVersion(t *testing.T) {
	db, err := Open(Options{BlobCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := db.Table("t")
	gens := func() (stat, get, comp uint64) {
		t.Helper()
		s, err := tab.Stat("k")
		if err != nil {
			t.Fatal(err)
		}
		g, err := tab.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if s.RawSize != len(g.Blob) || g.RawSize != len(g.Blob) {
			t.Fatalf("RawSize stat %d get %d, blob is %d bytes", s.RawSize, g.RawSize, len(g.Blob))
		}
		v, err := tab.Open("k")
		if err != nil {
			t.Fatal(err)
		}
		return s.Gen, g.Gen, v.Gen
	}
	if err := tab.Put("k", nil, []byte("version one")); err != nil {
		t.Fatal(err)
	}
	s1, g1, c1 := gens()
	if s1 != g1 || g1 != c1 {
		t.Fatalf("one row version, three generations: stat %d get %d compressed %d", s1, g1, c1)
	}
	if _, hit, _ := gens(); hit != g1 {
		t.Fatalf("a cache hit reports generation %d, the miss said %d", hit, g1)
	}
	if err := tab.Put("k", nil, []byte("version two")); err != nil { // same length
		t.Fatal(err)
	}
	s2, g2, c2 := gens()
	if s2 != g2 || g2 != c2 || g2 <= g1 {
		t.Fatalf("same-size re-Put: generations %d/%d/%d after %d", s2, g2, c2, g1)
	}
	if err := tab.SetMeta("k", map[string]string{"a": "b"}); err != nil {
		t.Fatal(err)
	}
	if s3, _, _ := gens(); s3 <= g2 {
		t.Fatalf("SetMeta kept generation %d", s3)
	}
}

// --- SetMeta rewrites metadata without touching the blob ---

func TestSetMetaReusesStoredStream(t *testing.T) {
	for _, opts := range []Options{{}, {WALShards: 2, GroupCommit: true}} {
		if opts.WALShards > 0 {
			opts.Dir = t.TempDir()
		}
		clock := vtime.NewManual(time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC))
		opts.Clock = clock
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		blob := benchBlob(32 << 10)
		if err := tab.Put("k", map[string]string{"owner": "alice"}, blob); err != nil {
			t.Fatal(err)
		}
		before, _ := tab.Stat("k")
		compBefore, _, _ := tab.GetCompressed("k")
		clock.Advance(time.Second)
		if err := tab.SetMeta("k", map[string]string{"owner": "alice", "stage_in": "a.dat"}); err != nil {
			t.Fatal(err)
		}
		rec, err := tab.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Meta["stage_in"] != "a.dat" || rec.Meta["owner"] != "alice" {
			t.Fatalf("meta not replaced: %v", rec.Meta)
		}
		if !bytes.Equal(rec.Blob, blob) {
			t.Fatal("blob changed")
		}
		if rec.CompressedSize != before.CompressedSize {
			t.Fatalf("CompressedSize %d -> %d", before.CompressedSize, rec.CompressedSize)
		}
		// As after a Put of the same blob: a fresh StoredAt.
		if !rec.StoredAt.After(before.StoredAt) {
			t.Fatalf("StoredAt did not advance: %v -> %v", before.StoredAt, rec.StoredAt)
		}
		compAfter, _, _ := tab.GetCompressed("k")
		if &compAfter[0] != &compBefore[0] {
			t.Fatal("SetMeta re-compressed the blob instead of reusing the stored stream")
		}
		if err := tab.SetMeta("absent", nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("SetMeta on a missing key: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if opts.Dir == "" {
			continue
		}
		// The rewrite is durable like any put.
		db, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err = db.Table("t").Get("k")
		if err != nil || rec.Meta["stage_in"] != "a.dat" || !bytes.Equal(rec.Blob, blob) {
			t.Fatalf("after replay: %v %v", err, rec)
		}
		db.Close()
	}
}

// --- a row whose stream disagrees with raw_size is corrupt ---

func TestGetRawSizeMismatchIsCorrupt(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("twelve bytes"))
	zw.Close()
	for _, rawSize := range []int{0, 5, 11, 13, 4096, MaxBlobBytes + 1} {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := db.shards[0]
		s.mu.Lock()
		s.apply(&walEntry{Op: "put", Table: "t", Key: "k", Comp: gz.Bytes(), RawSize: rawSize}, -1)
		s.mu.Unlock()
		if _, err := db.Table("t").Get("k"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("raw_size %d over a 12-byte stream: %v, want ErrCorrupt", rawSize, err)
		}
		db.Close()
	}
	// And a stream cut short of its trailer.
	db, _ := Open(Options{})
	defer db.Close()
	s := db.shards[0]
	s.mu.Lock()
	s.apply(&walEntry{Op: "put", Table: "t", Key: "k", Comp: gz.Bytes()[:gz.Len()-4], RawSize: 12}, -1)
	s.mu.Unlock()
	if _, err := db.Table("t").Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated stream: %v, want ErrCorrupt", err)
	}
}

// --- WAL compatibility ---

// legacyFrame is the parent commit's writeEntry: json.Marshal, then the
// length, then the bytes.
func legacyFrame(t *testing.T, e *walEntry) []byte {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(len(b)))
	return append(out, b...)
}

func TestAppendEntryMatchesLegacyFraming(t *testing.T) {
	when := time.Date(2010, 7, 1, 12, 30, 0, 123456789, time.UTC)
	entries := []*walEntry{
		{Op: "put", Table: "executables", Key: "MontecarloService",
			Meta: map[string]string{"owner": "alice", "params": `[{"name":"n"}]`},
			Comp: benchBlob(3000), RawSize: 3000, StoredAt: when},
		{Op: "put", Table: "t", Key: "empty-meta", Meta: map[string]string{}, Comp: []byte{0x1f, 0x8b}, RawSize: 1, StoredAt: when},
		{Op: "put", Table: "t", Key: "nil-everything"},
		{Op: "put", Table: "t", Key: "escapes",
			Meta: map[string]string{"<html>": "a&b", "quote\"": "back\\slash", "ctl": "\x00\x1f\t\n", "uni": "  é\xff"},
			Comp: []byte{}, StoredAt: when.In(time.FixedZone("x", 3600))},
		{Op: "delete", Table: "executables", Key: "MontecarloService"},
		{Op: "delete", Table: "", Key: ""},
		{Op: opFloor, RawSize: 7},
		{Op: opFloor},
	}
	var all, want bytes.Buffer
	for i, e := range entries {
		var one bytes.Buffer
		if err := appendEntry(&one, e); err != nil {
			t.Fatal(err)
		}
		legacy := legacyFrame(t, e)
		if !bytes.Equal(one.Bytes(), legacy) {
			t.Errorf("entry %d (%s %q): new framing differs\n new %q\n old %q", i, e.Op, e.Key, one.Bytes(), legacy)
		}
		// Appended behind earlier frames (the group-commit batch), the
		// back-patched length must land on this frame, not the first.
		if err := appendEntry(&all, e); err != nil {
			t.Fatal(err)
		}
		want.Write(legacy)
		var viaWriter bytes.Buffer
		if err := writeEntry(&viaWriter, e); err != nil || !bytes.Equal(viaWriter.Bytes(), legacy) {
			t.Errorf("entry %d: writeEntry differs (%v)", i, err)
		}
	}
	if !bytes.Equal(all.Bytes(), want.Bytes()) {
		t.Fatal("batched frames differ from the legacy stream")
	}
}

func TestAppendEntryErrorLeavesBufferIntact(t *testing.T) {
	var buf bytes.Buffer
	if err := appendEntry(&buf, &walEntry{Op: "put", Key: "a"}); err != nil {
		t.Fatal(err)
	}
	good := bytes.Clone(buf.Bytes())
	// A timestamp outside years 0..9999 is the one thing in a walEntry
	// json refuses to encode.
	bad := &walEntry{Op: "put", Key: "b", StoredAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}
	if err := appendEntry(&buf, bad); err == nil {
		t.Fatal("unencodable entry accepted")
	}
	if !bytes.Equal(buf.Bytes(), good) {
		t.Fatal("failed encode left bytes behind")
	}
}

// fixtureBlob regenerates the payloads of testdata/parent-*, which the
// parent commit's encoder wrote (see TestParentWrittenDirectoryReplays).
func fixtureBlob(seed, n int) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = "ABCDEFGHIJKLMNOP"[x&15]
	}
	return b
}

// TestParentWrittenDirectoryReplays opens database directories written
// by the commit before the encoder changed (json.Marshal framing; puts,
// overwrites, deletes, a Compact in the middle, two tables; the sharded
// one with 1 KB segments so it holds snapshots with floors and several
// segments) — the sharded one as it is (its manifest says 4 shards,
// whatever Open asks for), the stock one imported into 1 and 4 shards.
func TestParentWrittenDirectoryReplays(t *testing.T) {
	cases := []struct {
		dir  string
		opts Options
	}{
		{"parent-stock", Options{}},
		{"parent-sharded", Options{WALShards: 4, SegmentBytes: 1024}},
		{"parent-stock", Options{WALShards: 4}},
		{"parent-sharded", Options{}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/shards=%d", tc.dir, tc.opts.WALShards), func(t *testing.T) {
			tc.opts.Dir = copyDir(t, filepath.Join("testdata", tc.dir))
			db, err := Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkParentRows(t, db)
			// And the directory keeps taking writes.
			if err := db.Table("executables").Put("NewService", nil, []byte("echo hi\n")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkParentRows asserts db holds exactly what the parent commit wrote
// into testdata/parent-stock and testdata/parent-sharded.
func checkParentRows(t *testing.T, db *DB) {
	t.Helper()
	exe := db.Table("executables")
	if got := exe.Len(); got != 11 {
		t.Fatalf("%d executables, want 11: %v", got, exe.Keys())
	}
	alpha, err := exe.Get("AlphaService")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(alpha.Blob, fixtureBlob(3, 900)) || alpha.Meta["stage_in"] != "a.dat,b.dat" || len(alpha.Meta) != 2 {
		t.Fatalf("AlphaService: meta %v, %d blob bytes", alpha.Meta, len(alpha.Blob))
	}
	want := time.Date(2010, 7, 1, 0, 0, 10, 0, time.UTC) // the fixture clock's tenth put
	if !alpha.StoredAt.Equal(want) {
		t.Fatalf("AlphaService stored at %v, want %v", alpha.StoredAt, want)
	}
	empty, err := exe.Get("EmptyService")
	if err != nil || len(empty.Blob) != 0 || len(empty.Meta) != 0 {
		t.Fatalf("EmptyService: %v %+v", err, empty)
	}
	for i := 1; i < 10; i++ {
		rec, err := exe.Get(fmt.Sprintf("Bulk%dService", i))
		if err != nil || !bytes.Equal(rec.Blob, fixtureBlob(10+i, 400)) || rec.Meta["i"] != fmt.Sprint(i) {
			t.Fatalf("Bulk%dService: %v", i, err)
		}
	}
	for _, gone := range []string{"GoneService", "Bulk0Service"} {
		if _, err := exe.Get(gone); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: %v, want ErrNotFound", gone, err)
		}
	}
	if rec, err := db.Table("audit").Stat("0000000000000001"); err != nil || rec.Meta["verb"] != "upload" {
		t.Fatalf("audit row: %v", err)
	}
}

// TestParentWrittenFilesReencodeIdentically decodes every frame of the
// parent-written files and encodes it again: the bytes must come back
// exactly, whatever the Go version's gzip does.
func TestParentWrittenFilesReencodeIdentically(t *testing.T) {
	files, err := filepath.Glob("testdata/parent-*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	frames := 0
	for _, name := range files {
		if filepath.Base(name) == manifestName {
			continue
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		for r := bytes.NewReader(raw); r.Len() > 0; frames++ {
			e, _, err := readEntry(r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := appendEntry(&out, e); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Errorf("%s: re-encoded bytes differ", name)
		}
	}
	if frames < 20 {
		t.Fatalf("only %d frames in the fixtures", frames)
	}
}
