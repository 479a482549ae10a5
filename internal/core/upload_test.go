package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/blobdb/blobtest"
	"repro/internal/bubble"
	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestUploadProbeSequence pins what Fig. 8 is drawn from: a publish on the
// paper profile makes exactly these cost-model calls, by the raw size of
// the file, in this order — the temporary spill and its read-back, the
// compression, the database write, the service build — however the bytes
// reached the database.
func TestUploadProbeSequence(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		content := gsh.Pad([]byte("echo fig8\n"), 64<<10)
		got := f.probes.record(func() {
			if _, err := f.ons.UploadAndGenerate("alice", "fig8.gsh", "", nil, content); err != nil {
				t.Fatal(err)
			}
		})
		st, err := f.parts.DB.Table(ExecutablesTable).Stat("Fig8Service")
		if err != nil {
			t.Fatal(err)
		}
		cost := metrics.DefaultCost()
		deflate := time.Duration(float64(len(content)) / cost.CompressBps * float64(time.Second))
		want := []string{
			fmt.Sprintf("%s %d", metrics.DiskWrite, len(content)),
			fmt.Sprintf("%s %d", metrics.DiskRead, len(content)),
			fmt.Sprintf("%s %d", metrics.CPU, deflate),
			fmt.Sprintf("%s %d", metrics.DiskWrite, st.CompressedSize+128),
			fmt.Sprintf("%s %d", metrics.CPU, cost.ServiceBuild),
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a publish made cost-model calls\n  %q\nthe paper profile makes\n  %q", got, want)
		}
	})
}

// countingReader counts what is read of an endless run of comment lines.
type countingReader struct{ n int64 }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '#'
	}
	r.n += int64(len(p))
	return len(p), nil
}

// TestReadUploadFailsFastPastTheProgramLimit: a file past the program
// limit (64 MB; narrowed here) is refused at the first piece that crosses
// it — with the error a buffered upload of that size got from gsh.Parse —
// instead of being read to its end first. A declared length past the limit
// refuses nothing by itself: it is the body's, not the file's.
func TestReadUploadFailsFastPastTheProgramLimit(t *testing.T) {
	const limit = 100 << 10
	src := &countingReader{}
	_, err := readUpload(src, -1, limit)
	if !errors.Is(err, ErrBadProgram) || err.Error() != fmt.Sprintf("%v: %v", ErrBadProgram, gsh.ErrTooLarge) {
		t.Fatalf("an endless upload: %v", err)
	}
	if src.n > limit+32<<10 {
		t.Fatalf("%d bytes were read to refuse a file at %d", src.n, limit)
	}
	// The pooled writer and scratch buffer it was deflating into serve
	// the next upload clean.
	content := gsh.Pad([]byte("echo fits\n"), limit)[:limit]
	up, err := readUpload(bytes.NewReader(content), 10*limit, limit)
	if err != nil || up.program != nil || up.RawSize() != limit || up.stored.Sum != sha256.Sum256(content) {
		t.Fatalf("a file of exactly the limit: %+v, %v", up, err)
	}
	db, err := blobdb.Open(blobdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Table("t").PutStored("k", nil, up.stored); err != nil {
		t.Fatal(err)
	}
	blobtest.VerifyStored(t, db)
	if _, err := readUpload(bytes.NewReader(append(content, '\n')), -1, limit); !errors.Is(err, ErrBadProgram) {
		t.Fatalf("one byte past the limit: %v", err)
	}
}

// TestReadUploadPassesReadErrorsThrough: what the reader fails with is
// what the caller can test for (the portal maps *http.MaxBytesError).
func TestReadUploadPassesReadErrorsThrough(t *testing.T) {
	_, err := ReadUpload(io.MultiReader(bytes.NewReader([]byte("echo x\n")), errReader{io.ErrUnexpectedEOF}), -1)
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrBadProgram) {
		t.Fatalf("got %v", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestUploadSpanCarriesStoredBytes: the upload span says what arrived and
// what a row keeps of it, and says so when the publish is refused too.
func TestUploadSpanCarriesStoredBytes(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		col := trace.NewCollector(0, 0)
		f := newFixtureTraced(t, nil, col, nil)
		content := gsh.Pad([]byte("echo traced\n"), 32<<10)
		for _, tc := range []struct {
			user   string
			status string
		}{{"alice", "ok"}, {"stranger", "error"}} {
			file, err := ReadUpload(bytes.NewReader(content), int64(len(content)))
			if err != nil {
				t.Fatal(err)
			}
			root := f.parts.Tracing.StartRoot("test")
			_, err = f.ons.UploadAndGenerateFrom(tc.user, "traced.gsh", "", nil, file, root.Context())
			root.End()
			if (err != nil) != (tc.status == "error") {
				t.Fatalf("%s: %v", tc.user, err)
			}
			id := root.Context().TraceID
			byName, _ := indexSpans(col.Trace(hex.EncodeToString(id[:])))
			if len(byName["upload"]) != 1 {
				t.Fatalf("%s: %d upload spans", tc.user, len(byName["upload"]))
			}
			sp := byName["upload"][0]
			if sp.Status != tc.status || sp.Attrs["bytes"] != strconv.Itoa(len(content)) || sp.Attrs["stored_bytes"] != strconv.Itoa(len(file.stored.Gzip)) {
				t.Fatalf("%s: upload span %s %v, the file is %d bytes stored as %d", tc.user, sp.Status, sp.Attrs, len(content), len(file.stored.Gzip))
			}
		}
	})
}

// TestUploadAllocatesNoRawSizedObject is the deterministic guard behind
// the benchmark claim: publishing a 1 MB executable on the production
// knobs, from the first byte read to the record published — on a sharded,
// group-committed, on-disk database — allocates the stream its row keeps
// and a fraction of the file's size beside it. A raw copy would be the
// whole of it again.
func TestUploadAllocatesNoRawSizedObject(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const size = 1 << 20
		db, err := blobdb.Open(blobdb.Options{Dir: t.TempDir(), WALShards: 4, GroupCommit: true, AutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		f := newFixtureDB(t, db, nil, nil, func(cfg *Config) {
			cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL, cfg.DirectDBWrite = true, true, 100*time.Hour, true
			cfg.PushEvents, cfg.CoalesceStaging = true, true
			cfg.ChunkedStaging, cfg.WireCompression, cfg.DataAwarePlacement = true, true, true
		})
		content := gsh.Pad([]byte("echo big\n"), size)
		// The codecs and the log's encode buffers live on free lists, which
		// neither a collection mid-run nor a second P empties.
		var spent, stored uint64
		const runs = 6
		for i := -1; i < runs; i++ { // the first run fills the lists
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			// One reader over the caller's bytes stands in for the request body.
			file, err := ReadUpload(bytes.NewReader(content), size)
			if err == nil {
				_, err = f.ons.UploadAndGenerateFrom("alice", "big.gsh", "", nil, file, trace.SpanContext{})
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if i >= 0 {
				spent += after.TotalAlloc - before.TotalAlloc
				stored += uint64(len(file.stored.Gzip))
			}
			if err := f.ons.DeleteService("BigService"); err != nil {
				t.Fatal(err)
			}
		}
		if perOp, row := spent/runs, stored/runs; perOp > row+size/4 {
			t.Fatalf("publishing a %d B executable allocates %d B, its stored stream is %d", size, perOp, row)
		}
	})
}
