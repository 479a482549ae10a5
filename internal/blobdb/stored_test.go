package blobdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/gridftp"
	"repro/internal/gridsim"
	"repro/internal/xsec"
)

// noise is n bytes gzip cannot shrink.
func noise(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// readInPieces reads r to its end in reads of sizes drawn from rng.
func readInPieces(r io.Reader, rng *rand.Rand) ([]byte, error) {
	var out []byte
	for {
		p := make([]byte, 1+rng.Intn(5000))
		n, err := r.Read(p)
		out = append(out, p[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// FuzzStoredReader holds the streamed read to the materialised one: for
// any blob, Open().Reader() read in reads of any sizes yields exactly
// Get().Blob, under the digest sha256 gives those bytes.
func FuzzStoredReader(f *testing.F) {
	f.Add([]byte(nil), int64(1))
	f.Add([]byte("echo hi\n"), int64(2))
	f.Add(bytes.Repeat([]byte("compressible "), 400), int64(3))
	f.Add(noise(4, 7000), int64(4)) // stored stream larger than the blob
	f.Fuzz(func(t *testing.T, blob []byte, seed int64) {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tab := db.Table("t")
		if err := tab.Put("k", map[string]string{"m": "v"}, blob); err != nil {
			t.Fatal(err)
		}
		rec, err := tab.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		v, err := tab.Open("k")
		if err != nil {
			t.Fatal(err)
		}
		if v.RawSize != len(blob) || v.Gen != rec.Gen || len(v.Gzip) != rec.CompressedSize || v.Meta["m"] != "v" {
			t.Fatalf("Open says %d bytes gen %d stored %d, Get %d gen %d stored %d", v.RawSize, v.Gen, len(v.Gzip), rec.RawSize, rec.Gen, rec.CompressedSize)
		}
		if sum, err := v.Digest(); err != nil || sum != sha256.Sum256(blob) {
			t.Fatalf("digest %x, %v", sum, err)
		}
		r, err := v.Reader()
		if err != nil {
			t.Fatal(err)
		}
		got, err := readInPieces(r, rand.New(rand.NewSource(seed)))
		if err != nil || !bytes.Equal(got, rec.Blob) || !bytes.Equal(got, blob) {
			t.Fatalf("streamed %d bytes (%v), Get returned %d, put %d", len(got), err, len(rec.Blob), len(blob))
		}
		if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("read past the end: %d, %v", n, err)
		}
		r.Close()
		r.Close()
		if _, err := r.Read(make([]byte, 1)); !errors.Is(err, fs.ErrClosed) {
			t.Fatalf("read after Close: %v", err)
		}
	})
}

// gzipOf compresses blob the way Put does.
func gzipOf(t *testing.T, blob []byte) []byte {
	t.Helper()
	comp, err := compress(blob)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestStoredReaderRefusesCorruptStreams: a stored stream that does not
// inflate, cleanly and to its end, to the row's length and digest is
// ErrCorrupt — for a row that recorded a digest while the last bytes are
// still held back, for one that has none as soon as the digest is asked for.
func TestStoredReaderRefusesCorruptStreams(t *testing.T) {
	blob := bytes.Repeat([]byte("the executable's bytes, over and over. "), 3000)
	good := gzipOf(t, blob)
	other := gzipOf(t, bytes.ToUpper(blob)) // a well-formed stream of other bytes
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name    string
		comp    []byte
		rawSize int
	}{
		{"bit flip", flipped, len(blob)},
		{"truncated", good[:len(good)-9], len(blob)},
		{"trailing garbage", append(bytes.Clone(good), "tail"...), len(blob)},
		{"second member", append(bytes.Clone(good), good...), len(blob)},
		{"raw size one over", good, len(blob) + 1},
		{"raw size one under", good, len(blob) - 1},
		{"no gzip header", blob[:100], len(blob)},
		{"another blob's stream", other, len(blob)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(blob)
			for _, recorded := range []bool{true, false} {
				s := newShards(&DB{}, 1)[0]
				e := &walEntry{Op: "put", Table: "t", Key: "k", Comp: tc.comp, RawSize: tc.rawSize}
				if recorded {
					e.Sum = sum[:]
				}
				s.apply(e, -1)
				v, err := (&Table{db: &DB{shards: []*shard{s}}, name: "t"}).Open("k")
				if err != nil {
					t.Fatal(err)
				}
				r, err := v.Reader()
				if !recorded {
					if tc.name == "another blob's stream" {
						continue // nothing to hold it to: its digest is what it hashes to
					}
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("no digest recorded: Reader() = %v, want ErrCorrupt from computing one", err)
					}
					if _, err := v.Digest(); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("second Digest() = %v: a corrupt stream's digest was memoised", err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := readInPieces(r, rand.New(rand.NewSource(1)))
				r.Close()
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("read %d bytes, %v; want ErrCorrupt", len(got), err)
				}
				if len(got) >= tc.rawSize {
					t.Fatalf("all %d bytes were handed out before the stream was refused", len(got))
				}
			}
		})
	}
}

// TestOldDirectoriesKeepOpening: a directory whose put entries carry no
// digest — what every release before this one wrote — opens, stages both
// ways under sha256 of the raw bytes, pays for each row's digest once and
// only when asked, and writes it forward from then on.
func TestOldDirectoriesKeepOpening(t *testing.T) {
	dir := t.TempDir()
	when := time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	blobs := map[string][]byte{
		"snapshotted": bytes.Repeat([]byte("from the snapshot "), 5000),
		"logged":      bytes.Repeat([]byte("from the log "), 7000),
		"never-asked": bytes.Repeat([]byte("left alone "), 100),
	}
	const shards = 2
	writeFile := func(name string, entries ...*walEntry) {
		t.Helper()
		var buf bytes.Buffer
		for _, e := range entries {
			if err := writeEntry(&buf, e); err != nil {
				t.Fatal(err)
			}
		}
		if bytes.Contains(buf.Bytes(), []byte("sha256")) {
			t.Fatal("the old format has no digest field")
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	put := func(key string) *walEntry {
		return &walEntry{Op: "put", Table: "exe", Key: key, Meta: map[string]string{"owner": "alice"},
			Comp: gzipOf(t, blobs[key]), RawSize: len(blobs[key]), StoredAt: when}
	}
	files := map[string][]*walEntry{}
	for key := range blobs {
		name := segmentFile(shardIndex("exe", key, shards), 0)
		if key == "snapshotted" {
			name = shardSnapshotFile(shardIndex("exe", key, shards))
			files[name] = append(files[name], &walEntry{Op: opFloor})
		}
		files[name] = append(files[name], put(key))
	}
	for name, entries := range files {
		writeFile(name, entries...)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	tab := db.Table("exe")
	rowOf := func(key string) *row {
		t.Helper()
		r, err := db.Table("exe").row(key)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for key := range blobs {
		if rowOf(key).sumKnown.Load() {
			t.Fatalf("%s: recovery computed a digest nobody asked for", key)
		}
	}

	// The real site, and alice's client to it.
	now := time.Now()
	ca, err := xsec.NewCA("FTPCA", now, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueUser("alice", now, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	store := gridsim.NewStore()
	hs := httptest.NewServer(gridftp.NewServer(store, xsec.NewTrustStore(ca.Cert), nil))
	defer hs.Close()
	ftp := &gridftp.Client{BaseURL: hs.URL, Cred: alice}
	fileOf := func(key string) gridftp.File {
		t.Helper()
		v, err := tab.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := v.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return gridftp.File{Size: int64(v.RawSize), SHA256: hex.EncodeToString(sum[:]), Open: v.Reader, Gzip: v.Gzip}
	}
	wantSum := func(key string) string {
		sum := sha256.Sum256(blobs[key])
		return hex.EncodeToString(sum[:])
	}
	staged := func(key, how, checksum string, err error) {
		t.Helper()
		got, gerr := store.Get(xsec.Identity(alice.Chain), key)
		if err != nil || gerr != nil || checksum != wantSum(key) || !bytes.Equal(got, blobs[key]) {
			t.Fatalf("%s %s: site confirmed %s (%v) and holds %d bytes (%v), want sha256 of the raw bytes", key, how, checksum, err, len(got), gerr)
		}
	}
	for _, key := range []string{"snapshotted", "logged"} {
		checksum, err := ftp.PutFile(key, fileOf(key))
		staged(key, "streamed", checksum, err)
		// Computed once: with the stored stream swapped for garbage under
		// the row, a second open still knows the digest, so it inflated
		// nothing to learn it.
		r := rowOf(key)
		comp := r.comp
		r.comp = []byte("not a gzip stream")
		v, err := tab.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		if sum, err := v.Digest(); err != nil || hex.EncodeToString(sum[:]) != wantSum(key) {
			t.Fatalf("%s: second open's digest %x, %v", key, sum, err)
		}
		r.comp = comp
		stats, err := ftp.PutChunkedFile(key, fileOf(key), 4<<10)
		if err != nil || !stats.Compressed || stats.Fallback {
			t.Fatalf("%s: chunked over the stored stream: %+v, %v", key, stats, err)
		}
		staged(key, "in gzip chunks", stats.Checksum, err)
	}

	// Written forward: SetMeta's entry, entries past a segment roll and the
	// snapshot of a compaction all carry what is known by now.
	if err := tab.SetMeta("logged", map[string]string{"owner": "alice", "stage_in": "a.txt"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // 8 KB segments: these roll each shard's log
		if err := tab.Put("fresh", nil, noise(int64(i), 12<<10)); err != nil {
			t.Fatal(err)
		}
		if err := tab.SetMeta("snapshotted", map[string]string{"owner": "alice", "round": string(rune('0' + i))}); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func() {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(Options{Dir: dir, SegmentBytes: 8 << 10}); err != nil {
			t.Fatal(err)
		}
		tab = db.Table("exe")
		for _, key := range []string{"snapshotted", "logged"} {
			if r := rowOf(key); !r.sumKnown.Load() || hex.EncodeToString(r.sum[:]) != wantSum(key) {
				t.Fatalf("%s: reopened with digest %x (known: %v), want the one computed before", key, r.sum, r.sumKnown.Load())
			}
		}
		if rowOf("never-asked").sumKnown.Load() {
			t.Fatal("a digest nobody asked for appeared")
		}
	}
	reopen() // from the log
	if err := compact(db); err != nil {
		t.Fatal(err)
	}
	reopen() // from the snapshots
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*-000000.log")); len(segs) != 0 {
		t.Fatalf("compaction left the first segments behind: %v", segs)
	}
	// ... and a row nobody asked about is still served, and answers when asked.
	v, err := tab.Open("never-asked")
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := v.Digest(); err != nil || hex.EncodeToString(sum[:]) != wantSum("never-asked") {
		t.Fatalf("never-asked: %x, %v", sum, err)
	}
}

// TestPutRecordsDigestWithoutAnObject: the digest rides in the entry's own
// allocation, so recording it costs Put no object.
func TestPutRecordsDigestWithoutAnObject(t *testing.T) {
	if raceEnabled {
		t.Skip("object counts include the race detector's own")
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := db.Table("t")
	blob := []byte("an audit record")
	put := testing.AllocsPerRun(200, func() { tab.Put("k", nil, blob) })
	// What it cost before there was a digest: the entry (now with its
	// digest), its meta map, the gzip clone, the row, apply's tombstone key.
	if put > 5 {
		t.Fatalf("Put costs %.0f objects, want 5", put)
	}
	v, err := tab.Open("k")
	if err != nil {
		t.Fatal(err)
	}
	if sum, _ := v.Digest(); sum != sha256.Sum256(blob) {
		t.Fatalf("digest %x", sum)
	}
}

// TestReadStoredPutStored: a blob deflated and hashed as it was read is the
// row Put would have made of it — same bytes back, same digest, same sizes,
// across a reopen — whatever the reader's piece sizes and whatever length
// was declared for it.
func TestReadStoredPutStored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	blobs := map[string][]byte{
		"empty":        nil,
		"small":        []byte("echo hi\n"),
		"compressible": bytes.Repeat([]byte("compressible "), 40000),
		"noise":        noise(5, 300<<10), // ten pieces of 32 KB
	}
	for key, blob := range blobs {
		for _, declared := range []int64{-1, 0, int64(len(blob)), int64(len(blob)) + 700, MaxBlobBytes} {
			s, err := ReadStored(iotest.HalfReader(bytes.NewReader(blob)), declared, MaxBlobBytes)
			if err != nil {
				t.Fatalf("%s declared %d: %v", key, declared, err)
			}
			if s.RawSize != len(blob) || s.Sum != sha256.Sum256(blob) {
				t.Fatalf("%s declared %d: %d bytes hashing to %x", key, declared, s.RawSize, s.Sum)
			}
			if err := tab.PutStored(key, map[string]string{"k": key}, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(db *DB) {
		t.Helper()
		for key, blob := range blobs {
			rec, err := db.Table("t").Get(key)
			if err != nil || !bytes.Equal(rec.Blob, blob) || rec.RawSize != len(blob) || rec.Meta["k"] != key {
				t.Fatalf("%s reads back as %d bytes, %v, %v", key, len(rec.Blob), rec.Meta, err)
			}
			v, err := db.Table("t").Open(key)
			if err != nil {
				t.Fatal(err)
			}
			if sum, err := v.Digest(); err != nil || sum != sha256.Sum256(blob) {
				t.Fatalf("%s: digest %x, %v", key, sum, err)
			}
		}
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db)
	if err := db.Table("t").PutStored("", nil, &Stored{}); !errors.Is(err, ErrBadrecord) {
		t.Fatalf("PutStored without a key: %v", err)
	}
}

// TestReadStoredRefusals: a stream past the limit stops being read where
// it crosses it, a reader's failure comes back as it is, and neither leaves
// anything of itself in the pooled writer and scratch the next read uses.
func TestReadStoredRefusals(t *testing.T) {
	blob := noise(6, 200<<10)
	if _, err := ReadStored(bytes.NewReader(blob), int64(len(blob)), 100<<10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("declared past the limit: %v", err)
	}
	src := bytes.NewReader(blob)
	if _, err := ReadStored(src, -1, 100<<10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("delivered past the limit: %v", err)
	}
	if read := len(blob) - src.Len(); read > 100<<10+32<<10 {
		t.Fatalf("%d bytes read of a stream refused at %d", read, 100<<10)
	}
	if s, err := ReadStored(bytes.NewReader(blob[:100<<10]), -1, 100<<10); err != nil || s.RawSize != 100<<10 {
		t.Fatalf("exactly the limit: %v", err)
	}
	if _, err := ReadStored(iotest.TimeoutReader(bytes.NewReader(blob)), -1, MaxBlobBytes); !errors.Is(err, iotest.ErrTimeout) {
		t.Fatalf("a reader that fails: %v", err)
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := ReadStored(bytes.NewReader(blob), -1, MaxBlobBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Table("t").PutStored("after", nil, s); err != nil {
		t.Fatal(err)
	}
	if rec, err := db.Table("t").Get("after"); err != nil || !bytes.Equal(rec.Blob, blob) {
		t.Fatalf("the read after the refusals: %v", err)
	}
}

// TestReadStoredByteBudget: reading a 256 KB blob into its stored form
// allocates that form and small change — no buffer of the blob's size.
func TestReadStoredByteBudget(t *testing.T) {
	blob := benchBlob(256 << 10)
	s, err := ReadStored(bytes.NewReader(blob), int64(len(blob)), MaxBlobBytes)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(blob)
	got := bytesPerOp(func() {
		src.Reset(blob)
		if _, err := ReadStored(src, int64(len(blob)), MaxBlobBytes); err != nil {
			t.Fatal(err)
		}
	})
	if limit := int64(len(s.Gzip)) + 16<<10; got > limit { // the clone rounds up to whole pages
		t.Fatalf("ReadStored allocates %d B for a %d B gzip stream, budget %d (one clone)", got, len(s.Gzip), limit)
	}
}
