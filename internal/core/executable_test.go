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
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/blobdb"
	"repro/internal/blobdb/blobtest"
	"repro/internal/bubble"
	"repro/internal/gridftp"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// invokeLogged runs one invocation to its end and reports the cost-model
// calls Invoke made (the collector's are not in the window) and how many
// db.fetch spans the invocation recorded.
func (f *fixture) invokeLogged(t *testing.T, service string) (inv *Invocation, probes []string, fetches int) {
	t.Helper()
	probes = f.probes.record(func() { inv = f.invoke(t, service, nil) })
	ends(t, inv, InvDone)
	spans, err := f.ons.InvocationTrace(inv.Ticket)
	must(t, err)
	byName, _ := indexSpans(spans)
	return inv, probes, len(byName["db.fetch"])
}

// loads counts the database row reads among logged probe calls.
func loads(probes []string) int {
	n := 0
	for _, p := range probes {
		if strings.HasPrefix(p, metrics.DiskRead.String()+" ") {
			n++
		}
	}
	return n
}

// TestPaperProfileProbeSequence pins what the paper's figures are drawn
// from: with every knob off, one invocation makes exactly these
// cost-model calls, with these arguments, in this order — load and
// decompress (Fig. 6's first CPU peak), the temporary spill, the logon,
// the submit (its second) — on the first invocation and on every repeat.
func TestPaperProfileProbeSequence(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			// Keep the tentative poller out of the window: its first tick is
			// 180 ms of real time away, an Invoke takes a few.
			cfg.PollInterval = time.Hour
			cfg.InvocationTimeout = 100 * time.Hour
		})
		content := f.uploadPadded(t, "paper", "echo paper\n", 64<<10)
		st, err := f.parts.DB.Table(ExecutablesTable).Stat("PaperService")
		must(t, err)
		cost := metrics.DefaultCost()
		inflate := time.Duration(float64(len(content)) / cost.DecompressBps * float64(time.Second))
		want := []string{
			fmt.Sprintf("%s %d", metrics.DiskRead, st.CompressedSize),
			fmt.Sprintf("%s %d", metrics.CPU, inflate),
			fmt.Sprintf("%s %d", metrics.DiskWrite, len(content)),
			fmt.Sprintf("%s %d", metrics.CPU, cost.Auth),
			fmt.Sprintf("%s %d", metrics.CPU, cost.JobSubmit),
		}
		var invs []*Invocation
		for i := 0; i < 3; i++ {
			got := f.probes.record(func() { invs = append(invs, f.invoke(t, "PaperService", nil)) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("invocation %d made cost-model calls\n  %q\nthe paper profile makes\n  %q", i, got, want)
			}
		}
		for _, inv := range invs {
			<-inv.DoneChan() // leave no poller behind
		}
	})
}

// TestStoredGzipComparesGenerations: the benchmark's own programs are
// padded to one size, so a re-publish racing an invocation installs a row
// of the same raw length, and sizes cannot tell whose gzip stream and whose
// checksum belong together. A handle does not have to: it pins one row
// version when it opens, and stages that version's bytes over that
// version's stream under that version's checksum at every site, whatever
// is published meanwhile; a handle opened after the re-publish stages the
// new one's.
func TestStoredGzipComparesGenerations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { chunked(cfg); cfg.WireCompression = true })
		v1 := f.uploadPadded(t, "same", "echo v1\n", 8*gridftp.DefaultChunkBytes)
		v2 := gsh.Pad([]byte("echo v2\n"), 8*gridftp.DefaultChunkBytes)
		if len(v2) != len(v1) {
			t.Fatalf("versions are %d and %d bytes, want equal", len(v1), len(v2))
		}
		tab := f.parts.DB.Table(ExecutablesTable)
		row, err := tab.Stat("SameService")
		must(t, err)
		gz1, _, _ := tab.GetCompressed("SameService")
		sess, _, err := f.ons.gridSession("alice", UserAuth{MyProxyUser: "alice", Passphrase: "pw"}, trace.SpanContext{})
		must(t, err)
		open := func() *executable {
			t.Helper()
			exe, err := f.ons.openExecutable("SameService", nil)
			must(t, err)
			return exe
		}
		// stage uploads exe to site and checks what the site then holds.
		stage := func(exe *executable, site string, want []byte) {
			t.Helper()
			before := f.ons.StageStats()
			sum, err := f.ons.uploadExecutable(sess, exe, site, nil)
			if err != nil {
				t.Fatalf("staging to %s across a same-size re-publish: %v", site, err)
			}
			got, err := f.site(site).Store().Get(aliceDN, "SameService.gsh")
			if err != nil || !bytes.Equal(got, want) || sum != sha256Hex(want) {
				t.Fatalf("%s holds %d bytes (%v) under checksum %s, want the handle's version under %s", site, len(got), err, sum, sha256Hex(want))
			}
			after := f.ons.StageStats()
			if after.Fallbacks != before.Fallbacks || after.WireBytes-before.WireBytes >= uint64(len(want)) {
				t.Fatalf("%s was not staged over the stored gzip stream: %+v -> %+v", site, before, after)
			}
		}

		held := open() // pins v1 before the re-publish lands
		must(t, tab.Put("SameService", row.Meta, v2))
		if file, err := held.file(); err != nil || &file.Gzip[0] != &gz1[0] || file.SHA256 != sha256Hex(v1) {
			t.Fatalf("a handle opened on v1 describes checksum %s over another stream (%v)", file.SHA256, err)
		}
		stage(held, "siteA", v1)
		stage(held, "siteB", v1)
		late := open()
		if file, err := late.file(); err != nil || &file.Gzip[0] == &gz1[0] || file.SHA256 != sha256Hex(v2) {
			t.Fatalf("a handle opened after the re-publish describes checksum %s over v1's stream (%v)", file.SHA256, err)
		}
		stage(late, "siteA", v2)
	})
}

// TestHotInvokeReadsNoExecutable: with a copy staged, an invocation opens
// its handle and reads nothing through it — no row read or inflate charged,
// no db.fetch span, no stream — although the database has no blob cache to
// make a read cheap. The two ways a warm invocation can still need the
// content each run the fetch step exactly once, when they find out, read
// the one version the handle pinned as one stream, and end DONE.
func TestHotInvokeReadsNoExecutable(t *testing.T) {
	bubble.Run(func() {
		const size = 48 << 10

		t.Run("staged", func(t *testing.T) {
			f := newFixture(t, func(cfg *Config) {
				cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL = true, true, 100*time.Hour
				cfg.ChunkedStaging, cfg.WireCompression, cfg.DataAwarePlacement = true, true, true
			}, traced())
			f.ons.probeTTL = 100 * time.Hour // 30 s is 1.5 ms of this clock
			content := f.uploadPadded(t, "hot", "echo hot\n", size)
			inflate := fmt.Sprintf("%s %d", metrics.CPU, time.Duration(
				float64(len(content))/metrics.DefaultCost().DecompressBps*float64(time.Second)))
			_, probes, fetches := f.invokeLogged(t, "HotService")
			if fetches != 1 || !slices.Contains(probes, inflate) {
				t.Fatalf("cold invocation: %d db.fetch spans, probes %q", fetches, probes)
			}
			inv, probes, fetches := f.invokeLogged(t, "HotService")
			if fetches != 0 || loads(probes) != 0 || slices.Contains(probes, inflate) || inv.Output() != "hot\n" {
				t.Fatalf("hot invocation read the executable: %d db.fetch spans, probes %q; output %q", fetches, probes, inv.Output())
			}
		})

		t.Run("replicate fails", func(t *testing.T) {
			f := newFixture(t, func(cfg *Config) { cfg.StagingCache, cfg.StatsTTL = true, 100*time.Hour }, traced())
			content := f.uploadPadded(t, "fall", "echo fell through\n", size)
			first, _, _ := f.invokeLogged(t, "FallService")
			// The staged copy disappears from its site, and only the sibling
			// has room: the third-party transfer finds nothing to pull.
			must(t, f.site(first.Site).Store().Delete(aliceDN, "FallService.gsh"))
			sibling := map[string]string{"siteA": "siteB", "siteB": "siteA"}[first.Site]
			f.setStats(time.Now(), gridsim.SiteStats{Name: sibling, Slots: 8, FreeSlots: 8}) // the one idle site
			inv, probes, fetches := f.invokeLogged(t, "FallService")
			if inv.Site != sibling || f.ons.SubmitStats().Uploads != 2 || fetches != 1 || loads(probes) != 1 {
				t.Fatalf("ran at %s with %d uploads, fetched %d times (%d row reads: %q); want one fall-through upload to %s, fetched once",
					inv.Site, f.ons.SubmitStats().Uploads, fetches, loads(probes), probes, sibling)
			}
			byName, _ := f.invocationTree(t, inv)
			if st := byName["stage"]; len(st) != 1 || st[0].Attrs["wire"] != "stream" || st[0].Attrs["replicated_from"] != first.Site || len(byName["ftp.put"]) != 1 {
				t.Fatalf("stage spans %+v with %d ftp.put, want one that tried %s and then streamed once", st, len(byName["ftp.put"]), first.Site)
			}
			f.ons.mu.Lock()
			sum := f.ons.staged["FallService"][sibling]
			f.ons.mu.Unlock()
			if inv.Output() != "fell through\n" || sum != sha256Hex(content) {
				t.Fatalf("output %q, staged checksum %s", inv.Output(), sum)
			}
		})

		t.Run("possession probe expired, raw wire", func(t *testing.T) {
			f := newFixture(t, func(cfg *Config) {
				cfg.StagingCache, cfg.StatsTTL = true, 100*time.Hour
				cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true
			}, traced())
			f.ons.probeTTL = time.Minute
			f.uploadPadded(t, "probe", "echo probed\n", size)
			f.invokeLogged(t, "ProbeService")
			time.Sleep(2 * time.Minute)
			// Both sites' answers are stale: two probes, one chunking of the
			// raw executable, one fetch.
			sent := f.ons.PlacementStats().ProbesSent
			inv, probes, fetches := f.invokeLogged(t, "ProbeService")
			if got := f.ons.PlacementStats().ProbesSent - sent; got != 2 || fetches != 1 || loads(probes) != 1 || inv.Output() != "probed\n" {
				t.Fatalf("%d possession probes, fetched %d times (%d row reads: %q), output %q; want 2 probes, one fetch", got, fetches, loads(probes), probes, inv.Output())
			}
		})
	})
}

// TestHotInvokeAllocatesNoExecutableSizedObject is the deterministic
// guard behind the benchmark claim: once a 1 MB executable is staged, an
// invocation's allocations do not depend on it — neither with a blob
// cache that could hand out copies nor without one that would have to
// inflate. The in-process grid's allocations are in the figure too, so
// the copy it runs is swapped for a small one once staged: what is left
// is the appliance's side plus a job that costs the grid next to nothing.
func TestHotInvokeAllocatesNoExecutableSizedObject(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const size = 1 << 20
		for _, cacheBytes := range []int64{0, 8 << 20} {
			db, err := blobdb.Open(blobdb.Options{BlobCacheBytes: cacheBytes})
			must(t, err)
			t.Cleanup(func() { db.Close() })
			f := newFixture(t, func(cfg *Config) {
				cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL, cfg.PushEvents = true, true, 100*time.Hour, true
			}, onDB(db))
			f.uploadPadded(t, "big", "echo big\n", size)
			invoke := func() {
				_, err := f.ons.ExecuteAndWait("BigService", nil)
				must(t, err)
			}
			invoke() // cold: stages
			for _, name := range []string{"siteA", "siteB"} {
				must(t, f.site(name).Store().Put(aliceDN, "BigService.gsh", []byte("echo big\n")))
			}
			invoke()
			const runs = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				invoke()
			}
			runtime.ReadMemStats(&after)
			if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > size/8 {
				t.Fatalf("BlobCacheBytes=%d: a hot invocation of a %d B executable allocates %d B", cacheBytes, size, perOp)
			}
		}
	})
}

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
			_, err := f.ons.UploadAndGenerate("alice", "fig8.gsh", "", nil, content)
			must(t, err)
		})
		st, err := f.parts.DB.Table(ExecutablesTable).Stat("Fig8Service")
		must(t, err)
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
	if !errors.Is(err, ErrBadProgram) || err.Error() != fmt.Sprintf("%v: %v", ErrBadProgram, gsh.ErrTooLarge) || src.n > limit+32<<10 {
		t.Fatalf("an endless upload: %v after %d bytes read to refuse a file at %d", err, src.n, limit)
	}
	// The pooled writer and scratch buffer it was deflating into serve
	// the next upload clean.
	content := gsh.Pad([]byte("echo fits\n"), limit)[:limit]
	up, err := readUpload(bytes.NewReader(content), 10*limit, limit)
	if err != nil || up.program != nil || up.RawSize() != limit || up.stored.Sum != sha256.Sum256(content) {
		t.Fatalf("a file of exactly the limit: %+v, %v", up, err)
	}
	db, err := blobdb.Open(blobdb.Options{})
	must(t, err)
	defer db.Close()
	must(t, db.Table("t").PutStored("k", nil, up.stored))
	blobtest.VerifyStored(t, db)
	if _, err := readUpload(bytes.NewReader(append(content, '\n')), -1, limit); !errors.Is(err, ErrBadProgram) {
		t.Fatalf("one byte past the limit: %v", err)
	}
}

// TestReadUploadPassesReadErrorsThrough: what the reader fails with is
// what the caller can test for (the portal maps *http.MaxBytesError).
func TestReadUploadPassesReadErrorsThrough(t *testing.T) {
	_, err := ReadUpload(io.MultiReader(bytes.NewReader([]byte("echo x\n")), iotest.ErrReader(io.ErrUnexpectedEOF)), -1)
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrBadProgram) {
		t.Fatalf("got %v", err)
	}
}

// TestUploadSpanCarriesStoredBytes: the upload span says what arrived and
// what a row keeps of it, and says so when the publish is refused too.
func TestUploadSpanCarriesStoredBytes(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil, traced())
		content := gsh.Pad([]byte("echo traced\n"), 32<<10)
		for _, tc := range []struct {
			user   string
			status string
		}{{"alice", "ok"}, {"stranger", "error"}} {
			file, err := ReadUpload(bytes.NewReader(content), int64(len(content)))
			must(t, err)
			root := f.parts.Tracing.StartRoot("test")
			_, err = f.ons.UploadAndGenerateFrom(tc.user, "traced.gsh", "", nil, file, root.Context())
			root.End()
			if (err != nil) != (tc.status == "error") {
				t.Fatalf("%s: %v", tc.user, err)
			}
			id := root.Context().TraceID
			byName, _ := indexSpans(f.col.Trace(hex.EncodeToString(id[:])))
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
		must(t, err)
		t.Cleanup(func() { db.Close() })
		f := newFixture(t, func(cfg *Config) {
			cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL, cfg.DirectDBWrite = true, true, 100*time.Hour, true
			cfg.PushEvents, cfg.CoalesceStaging = true, true
			cfg.ChunkedStaging, cfg.WireCompression, cfg.DataAwarePlacement = true, true, true
		}, onDB(db))
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
			must(t, f.ons.DeleteService("BigService"))
		}
		if perOp, row := spent/runs, stored/runs; perOp > row+size/4 {
			t.Fatalf("publishing a %d B executable allocates %d B, its stored stream is %d", size, perOp, row)
		}
	})
}
