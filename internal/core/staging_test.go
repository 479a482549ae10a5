package core

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/gridftp"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/hop/hoptest"
	"repro/internal/trace"
)

// blips fails the first n file PUTs with a transport error — the WAN blip
// the bounded upload retry exists for.
func blips(n int64) *hoptest.Rule { return &hoptest.Rule{Match: "PUT /ftp/*", N: n, Do: hoptest.Fail} }

func TestUploadRetriesTransientFault(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.grid.Add(blips(1))
		f.uploadDemo(t)
		f.demo(t, "1")
		if st := f.ons.SubmitStats(); st.UploadRetries != 1 || st.Uploads != 2 {
			t.Fatalf("%d upload retries, %d uploads; want 1 retry, 2 uploads (failed attempt + retry)", st.UploadRetries, st.Uploads)
		}
	})
}

func TestUploadGivesUpAfterSecondFault(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// One candidate site: no failover to mask the exhausted retry.
		f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = 0 })
		f.grid.Add(blips(2))
		f.uploadDemo(t)
		_, err := f.ons.ExecuteAndWait("MontecarloService", digits("1"))
		// Both attempts at the first site fail; the pipeline moves on to the
		// second candidate site, whose transfer now passes through. Either
		// way exactly one retry was spent per failed site pair.
		if st := f.ons.SubmitStats(); st.UploadRetries != 1 {
			t.Fatalf("upload retries %d, want 1 (bounded): %v", st.UploadRetries, err)
		}
	})
}

func TestSessionFaultNotRetried(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		_, err := f.ons.uploadExecutable("no-such-session", heldExecutable(t, f.ons, "XService", []byte("x")), "siteA", nil)
		if st := f.ons.SubmitStats(); !errors.Is(err, cyberaide.ErrNoSession) || st.UploadRetries != 0 || st.Uploads != 1 {
			t.Fatalf("session fault %v: %d retries, %d uploads; want ErrNoSession, none, 1", err, st.UploadRetries, st.Uploads)
		}
	})
}

func TestRetryableStageErrClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{cyberaide.ErrNoSession, false},
		{cyberaide.ErrExpired, false},
		{cyberaide.ErrUnknownSite, false},
		{fmt.Errorf("wrap: %w", gridftp.ErrDenied), false},
		{fmt.Errorf("wrap: %w", gridftp.ErrBadInput), false},
		{fmt.Errorf("wrap: %w", gridftp.ErrNoFile), false},
		{fmt.Errorf("wrap: %w", gridftp.ErrChecksum), true},
		{fmt.Errorf("wrap: %w", gridftp.ErrNoChunk), true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("connection reset by peer"), true},
	}
	for _, c := range cases {
		if got := retryableStageErr(c.err); got != c.want {
			t.Errorf("retryableStageErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// chunked turns chunked staging on: a payload of n*gridftp.DefaultChunkBytes
// cuts into n chunks.
func chunked(cfg *Config) { cfg.ChunkedStaging = true }

func TestChunkedStagingEndToEnd(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { chunked(cfg); cfg.WireCompression = true })
		f.uploadDemo(t)
		f.demo(t, "3")
		if st := f.ons.StageStats(); st.ChunkedUploads != 1 || st.ChunksShipped == 0 || st.LogicalBytes == 0 || st.Fallbacks != 0 {
			t.Fatalf("%+v: want one accounted chunked upload and no fallback to a plain PUT", st)
		}
	})
}

func TestChunkedStagingOffKeepsStatsZero(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		f.demo(t, "3")
		if st := f.ons.StageStats(); st != (StageStats{}) {
			t.Fatalf("stock staging touched chunk counters: %+v", st)
		}
	})
}

// TestConcurrentChunkedStagingCoalesced races many cold invocations of
// one service through the chunked data plane with staging coalescing on:
// per site, one invocation transfers and the rest share its flight.
func TestConcurrentChunkedStagingCoalesced(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			chunked(cfg)
			cfg.SessionCache, cfg.StagingCache, cfg.CoalesceStaging, cfg.WireCompression = true, true, true, true
		})
		f.uploadDemo(t)
		burst(t, 8, func(int) error { _, err := f.ons.ExecuteAndWait("MontecarloService", digits("5")); return err })
		// Two candidate sites at most: everything beyond one transfer per
		// site must have been coalesced or served by the staging cache.
		st, sg := f.ons.SubmitStats(), f.ons.StageStats()
		if st.Uploads > 2 || sg.ChunkedUploads != st.Uploads {
			t.Fatalf("%d uploads, %d of them chunked; want at most one per site, all chunked", st.Uploads, sg.ChunkedUploads)
		}
	})
}

// TestConcurrentChunkedStagingManyServices races distinct services —
// and so distinct transfers, often to different sites — through the
// shared chunk counters and the per-site chunk stores.
func TestConcurrentChunkedStagingManyServices(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) {
			chunked(cfg)
			cfg.SessionCache, cfg.StagingCache, cfg.CoalesceStaging = true, true, true
		})
		const services = 4
		names := make([]string, services)
		for i := range names {
			names[i] = f.publish(t, fmt.Sprintf("job%c.gsh", 'a'+i),
				fmt.Sprintf("echo job %d\ncompute 1s\n%s", i, strings.Repeat("# filler line\n", 40*(i+1))))
		}
		burst(t, services, func(i int) error {
			if _, err := f.ons.ExecuteAndWait(names[i], nil); err != nil {
				return fmt.Errorf("%s: %w", names[i], err)
			}
			return nil
		})
		if st := f.ons.StageStats(); st.ChunkedUploads != services || st.ChunksShipped == 0 || st.LogicalBytes == 0 {
			t.Fatalf("%+v: want %d accounted chunked uploads", st, services)
		}
	})
}

// stagingBurst uploads a padded executable, warms the session and stats
// caches with one sequential invocation, then fires n simultaneous
// invocations and returns the submit-counter deltas over the burst. With
// coalesce, the first transfer of the burst is held on the wire until the
// other n-1 invocations are parked on its flight.
func stagingBurst(t *testing.T, f *fixture, n int, coalesce bool) SubmitStats {
	t.Helper()
	f.uploadPadded(t, "burst", "compute 1s\necho ok\n", 512<<10)
	_, err := f.ons.ExecuteAndWait("BurstService", nil)
	must(t, err)
	before := f.ons.SubmitStats()
	leader := hoptest.NewGate()
	if coalesce {
		f.grid.Add(&hoptest.Rule{Match: "PUT /ftp/*", Do: hoptest.Hold(leader, false)})
		go func() {
			<-leader.Arrived
			// Every other arrival parks on the one open staging flight.
			bubble.Wait()
			waiters := 0
			f.ons.mu.Lock()
			for _, fl := range f.ons.stagingFlights {
				waiters += fl.waiters
			}
			f.ons.mu.Unlock()
			if waiters != n-1 {
				t.Errorf("%d of %d arrivals joined the staging flight", waiters, n-1)
			}
			leader.Open()
		}()
	}
	burst(t, n, func(int) error { _, err := f.ons.ExecuteAndWait("BurstService", nil); return err })
	after := f.ons.SubmitStats()
	return SubmitStats{
		Uploads:          after.Uploads - before.Uploads,
		UploadsCoalesced: after.UploadsCoalesced - before.UploadsCoalesced,
	}
}

func TestColdBurstStagingStockUploadsPerInvocation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache, cfg.StatsTTL = true, time.Hour },
			overWAN(), withSites(gridsim.SiteConfig{Name: "siteA", Nodes: 2, CoresPerNode: 4}))
		const n = 8
		// Paper-faithful: every invocation pushes the full blob across the
		// WAN again, even while an identical transfer is in flight.
		if d := stagingBurst(t, f, n, false); d.Uploads != n || d.UploadsCoalesced != 0 {
			t.Fatalf("stock burst made %d uploads, %d coalesced; want %d, none", d.Uploads, d.UploadsCoalesced, n)
		}
	})
}

func TestColdBurstStagingCoalescedSingleUpload(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// The contract is "arrivals while a transfer is in flight share it",
		// so the test makes the overlap a fact instead of a likelihood: the
		// leader's PUT is held at the transport until the other n-1
		// invocations are parked on its flight.
		f := newFixture(t, func(cfg *Config) { cfg.CoalesceStaging, cfg.SessionCache, cfg.StatsTTL = true, true, time.Hour })
		const n = 8
		if d := stagingBurst(t, f, n, true); d.Uploads != 1 || d.UploadsCoalesced != n-1 {
			t.Fatalf("coalesced burst made %d uploads, %d coalesced; want exactly 1, %d", d.Uploads, d.UploadsCoalesced, n-1)
		}
	})
}

func TestStagingSessionFaultRetriesWithFreshLogon(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// A session fault surfacing during staging must flow through Invoke's
		// invalidate-and-retry path and complete the invocation on a fresh
		// logon — with and without coalescing (a flight leader's failure is
		// handed to the pipeline the same way).
		for _, coalesce := range []bool{false, true} {
			f := newFixture(t, func(cfg *Config) { cfg.SessionCache, cfg.StatsTTL, cfg.CoalesceStaging = true, time.Hour, coalesce })
			f.uploadDemo(t)
			f.demo(t, "1")
			// Kill the cached session behind onServe's back: the next staging
			// upload fails with ErrNoSession.
			f.parts.Agent.Logout(f.cachedSession())
			f.demo(t, "2")
		}
	})
}

func TestReplicateSessionFaultPropagatesWithoutDoomedUpload(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Regression: stageExecutable used to swallow every Replicate error
		// and fall through to a fresh upload. For a session fault the upload
		// is doomed too — the error must surface (so Invoke's retry fires)
		// without burning a second WAN round-trip on the dead session.
		f := newFixture(t, func(cfg *Config) { cfg.StagingCache = true })
		sess, err := f.parts.Agent.Authenticate("alice", "pw", time.Hour)
		must(t, err)
		exe := heldExecutable(t, f.ons, "RepService", []byte("echo hi\n"))
		must(t, f.ons.stageExecutable(sess.ID, exe, "siteA", nil))
		f.parts.Agent.Logout(sess.ID)
		before := f.ons.SubmitStats().Uploads
		err = f.ons.stageExecutable(sess.ID, exe, "siteB", nil)
		if got := f.ons.SubmitStats().Uploads; !errors.Is(err, cyberaide.ErrNoSession) || got != before {
			t.Fatalf("replicate session fault %v, %d -> %d uploads: want it propagated, no doomed fall-through upload", err, before, got)
		}
	})
}

func TestInvocationsSortedByTicket(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		var issued []string
		for range 5 {
			inv := f.invoke(t, "MontecarloService", digits("1"))
			issued = append(issued, inv.Ticket)
			<-inv.DoneChan()
		}
		var listed []string
		for _, inv := range f.ons.Invocations() {
			listed = append(listed, inv.Ticket)
		}
		if !slices.Equal(listed, issued) || !slices.IsSorted(listed) {
			t.Fatalf("listed %v, want the tickets in issue order %v, sorted", listed, issued)
		}
	})
}

func TestGridStatsExpiryStampedeCollapsesToOneFetch(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = 30 * time.Second })
		sess, err := f.parts.Agent.Authenticate("alice", "pw", time.Hour)
		must(t, err)
		// Plant an expired snapshot so every caller observes a miss at once.
		f.setStats(time.Now().Add(-time.Hour), gridsim.SiteStats{Name: "siteA", Slots: 8, FreeSlots: 8})
		before := f.ons.SubmitStats().StatsRPCs
		burst(t, 8, func(int) error {
			stats, err := f.ons.gridStats(sess.ID)
			if err == nil && len(stats) == 0 {
				err = errors.New("empty stats snapshot")
			}
			return err
		})
		if got := f.ons.SubmitStats().StatsRPCs - before; got != 1 {
			t.Fatalf("stampede on the expired snapshot cost %d fetches, want 1", got)
		}
	})
}

// TestStagingCacheHitLeadsNoFlight: under CoalesceStaging a staging-cache
// hit is answered before the flight table is consulted — no key, no
// flight, no channel: nothing at all is allocated.
func TestStagingCacheHitLeadsNoFlight(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.StagingCache, cfg.CoalesceStaging = true, true })
		exe := heldExecutable(t, f.ons, "HitService", []byte("echo hi\n"))
		f.ons.noteStaged("HitService", "siteA", "sum")
		allocs := testing.AllocsPerRun(100, func() {
			must(t, f.ons.stageExecutable("no-session", exe, "siteA", nil))
		})
		if st := f.ons.SubmitStats(); allocs != 0 || st.Uploads != 0 || st.UploadsCoalesced != 0 || len(f.ons.stagingFlights) != 0 {
			t.Fatalf("a staging-cache hit allocates %.0f objects (want 0) and staged: %+v, %d flights", allocs, st, len(f.ons.stagingFlights))
		}
	})
}

// TestSetStageInKeepsTheStoredExecutable: declaring stage-in files is a
// metadata rewrite. The row behaves as after a Put of the same blob —
// fresh StoredAt, same CompressedSize, same bytes — but the stored gzip
// stream is reused, not inflated and compressed again.
func TestSetStageInKeepsTheStoredExecutable(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		program := gsh.Pad([]byte("process corpus.txt 1000\necho counted\n"), 256<<10)
		_, err := f.ons.UploadAndGenerate("alice", "wordcount.gsh", "counts words", nil, program)
		must(t, err)
		tab := f.parts.DB.Table(ExecutablesTable)
		before, err := tab.Stat("WordcountService")
		must(t, err)
		gzBefore, _, _ := tab.GetCompressed("WordcountService")

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		must(t, f.ons.SetStageIn("WordcountService", []string{"corpus.txt", "stop.txt"}))
		runtime.ReadMemStats(&m1)
		if spent := m1.TotalAlloc - m0.TotalAlloc; spent > uint64(len(program))/4 {
			t.Errorf("SetStageIn allocated %d B on a %d B executable: it is moving the blob again", spent, len(program))
		}

		rec, err := tab.Get("WordcountService")
		must(t, err)
		if !bytes.Equal(rec.Blob, program) || rec.CompressedSize != before.CompressedSize || !rec.StoredAt.After(before.StoredAt) {
			t.Fatalf("the rewritten row holds other bytes, CompressedSize %d -> %d, StoredAt %v -> %v",
				before.CompressedSize, rec.CompressedSize, before.StoredAt, rec.StoredAt)
		}
		if gzAfter, _, _ := tab.GetCompressed("WordcountService"); &gzAfter[0] != &gzBefore[0] {
			t.Fatal("stored gzip stream was rebuilt")
		}
		want := map[string]string{"owner": "alice", "description": "counts words", "file_name": "wordcount.gsh",
			"params": before.Meta["params"], "stage_in": "corpus.txt,stop.txt"}
		if !maps.Equal(rec.Meta, want) {
			t.Fatalf("meta %v, want %v", rec.Meta, want)
		}
		info, err := f.ons.ServiceInfo("WordcountService")
		if err != nil || len(info.StageIn) != 2 {
			t.Fatalf("info %+v err %v", info, err)
		}
	})
}

// TestStagingSharesStoredStreamWhileRepublished pins the read-only
// contract of GetCompressed's result under the race detector: eight
// goroutines stage one service through the placement scorer and the
// chunked uploader — both slice the row's own gzip stream — while the
// row is re-published (new blob, new metadata), the WAL encoder reads it
// and the compactor snapshots it. Nobody may write to a shared slice;
// every invocation must still run the version it loaded.
func TestStagingSharesStoredStreamWhileRepublished(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		db, err := blobdb.Open(blobdb.Options{
			Dir: t.TempDir(), WALShards: 2, GroupCommit: true, AutoCompact: true,
			SegmentBytes: 256 << 10, CompactEvery: 20 * time.Millisecond, BlobCacheBytes: 1 << 20,
		})
		must(t, err)
		t.Cleanup(func() { db.Close() })
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache, cfg.StatsTTL = true, time.Hour
			cfg.ChunkedStaging, cfg.WireCompression, cfg.DataAwarePlacement = true, true, true
		}, onDB(db))
		// Two versions of one length, as a re-published benchmark program has:
		// only the row generation tells storedGzip whose stream it is reading.
		versions := [][]byte{gsh.Pad([]byte("echo v1\n"), 12*gridftp.DefaultChunkBytes), gsh.Pad([]byte("echo v2\n"), 12*gridftp.DefaultChunkBytes)}
		if len(versions[0]) != len(versions[1]) {
			t.Fatalf("versions are %d and %d bytes, want equal", len(versions[0]), len(versions[1]))
		}
		f.publish(t, "shared.gsh", string(versions[0]))
		tab := db.Table(ExecutablesTable)
		meta, err := tab.Stat("SharedService")
		must(t, err)

		// Every goroutine stages; between its own invocations a quarter of
		// them install a new version and a quarter rewrite the metadata, so
		// re-publishes always land while other goroutines are mid-staging —
		// and the work is bounded, which a free-running publisher is not.
		burst(t, 8, func(g int) error {
			for i := range 4 {
				out, err := f.ons.ExecuteAndWait("SharedService", nil)
				if err != nil || out != "v1\n" && out != "v2\n" {
					return fmt.Errorf("invoke: output %q (neither version), %v", out, err)
				}
				switch g % 4 {
				case 0:
					err = tab.Put("SharedService", meta.Meta, versions[(i+1)%2])
				case 1:
					err = tab.SetMeta("SharedService", meta.Meta)
				}
				if err != nil {
					return fmt.Errorf("re-publish: %w", err)
				}
			}
			return nil
		})
		if st := f.ons.StageStats(); st.ChunkedUploads == 0 || st.Fallbacks != 0 {
			t.Fatalf("the chunked path did not carry the staging: %+v", st)
		}
	})
}

// The three ways an executable's bytes cross the streamed edge, as the
// stage span's wire attribute names them, and the knobs that select each.
var edgeWires = []struct {
	wire  string
	knobs func(*Config)
	stock bool // the sites' servers predate the chunk protocol
}{
	{"stream", nil, false},
	{"gzip-chunks", func(cfg *Config) { cfg.ChunkedStaging, cfg.WireCompression = true, true }, false},
	{"fallback-put", func(cfg *Config) { cfg.ChunkedStaging, cfg.WireCompression = true, true }, true},
}

// edge is the fault table's view of the streamed edge: it watches the
// file PUTs (their stored streams, the bytes read off them, and which the
// site registered) and the commits, and answers the chunk endpoints as a
// stock server does when the sites predate the chunk protocol.
type edge struct{ put, commit hoptest.Watch }

func newEdge(f *fixture, stock bool) *edge {
	e := &edge{}
	f.grid.Add(&hoptest.Rule{Match: "PUT /ftp/*", Do: e.put.Do}, &hoptest.Rule{Match: "POST /ftp/commit", Do: e.commit.Do})
	if stock {
		for _, chunky := range []string{"/ftp/chunk/*", "/ftp/chunks/have", "/ftp/commit"} {
			f.grid.Add(&hoptest.Rule{Match: chunky, Do: hoptest.Answer(http.StatusBadRequest, gridftp.ErrBadInput.Error()+": bad file name")})
		}
	}
	return e
}

// registered counts the file PUTs and commits the real site answered 201.
func (e *edge) registered() int64 { return e.put.Created.Load() + e.commit.Created.Load() }

// checkClosed fails unless every stored stream a file PUT carried has
// been closed — which is what hands its gzip.Reader back to the pool.
// hop's transport closes a body before its RoundTrip returns, so there is
// nothing to wait for.
func (e *edge) checkClosed(t *testing.T) {
	t.Helper()
	bodies := e.put.Bodies()
	for i, body := range bodies {
		if _, err := body.Read(make([]byte, 1)); !errors.Is(err, fs.ErrClosed) {
			t.Fatalf("request body %d of %d is not closed: Read says %v", i+1, len(bodies), err)
		}
	}
}

// invokeTraced runs one invocation under a span of the test's own, so the
// trace can be found whether or not a ticket was ever issued, and returns
// every span of the trace and the finished invocation's error.
func invokeTraced(t *testing.T, f *fixture, service string) (*Invocation, map[string][]trace.SpanData, error) {
	t.Helper()
	top := f.ons.Tracer().StartRoot("test")
	inv, err := f.ons.InvokeCtx(service, nil, top.Context())
	if err == nil {
		<-inv.DoneChan()
		if inv.State() != InvDone {
			err = fmt.Errorf("invocation ended %s: %s", inv.State(), inv.Message())
		}
	}
	top.End()
	spans := f.col.Trace(top.Context().String()[:32])
	// Every span that was started has ended: an open one is not in the
	// collector, and its children would dangle.
	assertSingleTree(t, spans)
	byName, _ := indexSpans(spans)
	for _, name := range []string{"invoke", "db.fetch", "logon", "stage"} {
		if len(byName[name]) == 0 {
			t.Errorf("no %s span was recorded", name)
		}
	}
	return inv, byName, err
}

// TestStreamedEdgeFaults drives every fault the edge between the stored
// executable and the site can meet through every wire that crosses it.
func TestStreamedEdgeFaults(t *testing.T) {
	bubble.Run(func() {
		faults := []struct {
			name       string
			fault      hoptest.Action
			atCommit   bool // on the chunk wire the site's verdict comes at commit, not with a chunk
			retried    bool
			definitive bool
		}{
			{name: "reset after 10000 body bytes", fault: hoptest.BreakAfter(10000, 0, false), retried: true},
			{name: "reset before the first byte", fault: hoptest.BreakAfter(0, 0, false), retried: true},
			{name: "stall then close", fault: hoptest.BreakAfter(3000, 30*time.Millisecond, false), retried: true},
			{name: "dead keep-alive", fault: hoptest.BreakAfter(100, 0, true)},
			{name: "400 checksum mismatch", fault: hoptest.Answer(http.StatusBadRequest, gridftp.ErrChecksum.Error()+": got 00 want 11"), atCommit: true, definitive: true},
			{name: "507", fault: hoptest.Answer(http.StatusInsufficientStorage, "gridsim: quota exceeded"), atCommit: true, definitive: true},
		}
		for _, w := range edgeWires {
			for _, fc := range faults {
				t.Run(w.wire+"/"+fc.name, func(t *testing.T) {
					f := newFixture(t, w.knobs, traced())
					edge := newEdge(f, w.stock)
					target := map[bool]string{false: "PUT /ftp/chunk/*", true: "POST /ftp/commit"}[fc.atCommit]
					if w.wire != "gzip-chunks" {
						target = "PUT /ftp/*"
					}
					fault := &hoptest.Rule{Match: target, N: 1, Do: fc.fault}
					f.grid.Add(fault)
					content := f.uploadPadded(t, "edge", "echo edge\n", 8*gridftp.DefaultChunkBytes)
					inv, spans, err := invokeTraced(t, f, "EdgeService")
					if fault.Hits.Load() == 0 {
						t.Fatal("the fault never fired")
					}
					st := f.ons.SubmitStats()
					if want := map[bool]uint64{true: 1}[fc.retried]; st.UploadRetries != want {
						t.Errorf("%d upload retries, want %d", st.UploadRetries, want)
					}
					edge.checkClosed(t)
					held, herr := f.site("siteA").Store().Get(aliceDN, "EdgeService.gsh")
					if fc.definitive {
						if err == nil || !strings.Contains(err.Error(), "stage executable") || !errors.Is(err, gridftp.ErrBadInput) {
							t.Fatalf("invocation error %v, want the site's rejection named as the stage step's", err)
						}
						if herr == nil || edge.registered() != 0 || st.Uploads != 1 {
							t.Fatalf("a refused transfer left %d bytes at the site after %d uploads, %d of them registered", len(held), st.Uploads, edge.registered())
						}
						if stage := spans["stage"]; len(stage) != 1 || stage[0].Status != "error" || spans["invoke"][0].Status != "error" {
							t.Fatalf("stage spans %+v under %+v, want one failed stage under a failed invoke", stage, spans["invoke"])
						}
						waitFor(t, func() bool { return f.parts.Agent.SessionCount() == 0 })
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if inv.Site != "siteA" || !bytes.Equal(held, content) || edge.registered() != 1 {
						t.Fatalf("ran at %s; siteA holds %d bytes (%v), registered %d times; want the exact %d bytes exactly once", inv.Site, len(held), herr, edge.registered(), len(content))
					}
					if stage := spans["stage"]; len(stage) != 1 || stage[0].Attrs["wire"] != w.wire || (stage[0].Attrs["retried"] == "true") != fc.retried {
						t.Fatalf("stage spans %+v, want one over %s", stage, w.wire)
					}
					// A retry and a replay each read the source from the start
					// again; the chunk wire cuts the stored gzip and opens nothing.
					wantOpens := map[string]int{"stream": 2, "fallback-put": 2, "gzip-chunks": 0}[w.wire]
					if len(edge.put.Bodies()) != wantOpens {
						t.Errorf("%d stored streams were opened, want %d", len(edge.put.Bodies()), wantOpens)
					}
					if fetch := spans["db.fetch"]; len(fetch) != 1 || fetch[0].Attrs["bytes"] != fmt.Sprint(len(content)) || fetch[0].Attrs["stored_bytes"] == "" {
						t.Errorf("db.fetch spans %+v, want one with both sizes", fetch)
					}
				})
			}
		}
	})
}

// corruptStoredExecutable publishes content as service in a database under
// dir, closes it, and rewrites the logged row: its stored stream through
// mutate, its raw size by sizeOff. The digest the row recorded stays.
func corruptStoredExecutable(t *testing.T, dir, service string, content []byte, mutate func([]byte) []byte, sizeOff int) {
	t.Helper()
	db, err := blobdb.Open(blobdb.Options{Dir: dir})
	must(t, err)
	must(t, db.Table(ExecutablesTable).Put(service, map[string]string{"owner": "alice"}, content))
	must(t, db.Close())
	path := filepath.Join(dir, "wal-0-000000.log")
	frame, err := os.ReadFile(path)
	must(t, err)
	var entry map[string]any
	if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("log holds %d bytes, its one frame %d", len(frame), n)
	}
	must(t, json.Unmarshal(frame[4:], &entry))
	comp, err := base64.StdEncoding.DecodeString(entry["comp"].(string))
	must(t, err)
	entry["comp"] = base64.StdEncoding.EncodeToString(mutate(comp))
	entry["raw_size"] = len(content) + sizeOff
	out, err := json.Marshal(entry)
	must(t, err)
	must(t, os.WriteFile(path, append(binary.BigEndian.AppendUint32(nil, uint32(len(out))), out...), 0o644))
}

// TestStreamedEdgeRefusesCorruptRow: a stored stream that went bad on disk
// is found out on the appliance, by the stream itself, before the last byte
// of the PUT is written — so the site registers nothing — and is not retried:
// a second read would find the same row. (The chunk wire ships the stored
// stream as it is and never inflates it; there the site's commit refuses.)
func TestStreamedEdgeRefusesCorruptRow(t *testing.T) {
	bubble.Run(func() {
		same := func(comp []byte) []byte { return comp }
		corruptions := []struct {
			name    string
			mutate  func([]byte) []byte
			sizeOff int
		}{
			{"bit flip", func(comp []byte) []byte { comp[len(comp)/2] ^= 0x04; return comp }, 0},
			{"truncation", func(comp []byte) []byte { return comp[:len(comp)-9] }, 0},
			{"trailing garbage", func(comp []byte) []byte { return append(comp, "garbage"...) }, 0},
			{"raw size one over", same, 1},
			{"raw size one under", same, -1},
		}
		for _, w := range edgeWires {
			if w.wire == "gzip-chunks" {
				continue
			}
			for _, c := range corruptions {
				t.Run(w.wire+"/"+c.name, func(t *testing.T) {
					dir := t.TempDir()
					content := gsh.Pad([]byte("echo never\n"), 96<<10)
					corruptStoredExecutable(t, dir, "BadService", content, c.mutate, c.sizeOff)
					db, err := blobdb.Open(blobdb.Options{Dir: dir})
					must(t, err)
					// Closed before the fixture's cleanup looks for streams that
					// no longer match their rows: this one is meant not to.
					defer db.Close()
					f := newFixture(t, w.knobs, onDB(db), traced())
					edge := newEdge(f, w.stock)
					_, spans, err := invokeTraced(t, f, "BadService")
					if !errors.Is(err, blobdb.ErrCorrupt) || !strings.Contains(err.Error(), "stage executable") {
						t.Fatalf("invocation error %v, want ErrCorrupt from the stage step", err)
					}
					if st := f.ons.SubmitStats(); st.Uploads != 1 || st.UploadRetries != 0 {
						t.Fatalf("%d uploads, %d retries: a corrupt row is not a transient fault", st.Uploads, st.UploadRetries)
					}
					declared := int64(len(content) + c.sizeOff)
					if sent := edge.put.Sent.Load(); sent >= declared || sent == 0 {
						t.Fatalf("%d of the %d declared body bytes were written", sent, declared)
					}
					for _, name := range []string{"siteA", "siteB"} {
						if got, err := f.site(name).Store().Get(aliceDN, "BadService.gsh"); err == nil {
							t.Fatalf("%s registered %d bytes of a corrupt executable", name, len(got))
						}
					}
					if edge.registered() != 0 || len(spans["stage"]) != 1 || spans["stage"][0].Status != "error" {
						t.Fatalf("registered %d times, stage spans %+v", edge.registered(), spans["stage"])
					}
					edge.checkClosed(t)
				})
			}
		}
	})
}

// notAppliance names the functions under which what the process allocates
// is not the appliance's: the grid's own goroutines, which share the test's
// process — an HTTP server's connection (gatekeeper, GridFTP), the MyProxy
// server, the scheduler — the in-process pipe's buffer, which stands in for
// the kernel's socket buffer, and the test's own: the count, and what it
// publishes.
var notAppliance = []string{"net/http.(*conn).serve", "repro/internal/myproxy.(*Server).", "repro/internal/gridsim.", "repro/internal/netsim.(*pipeConn).Write", "repro/internal/core.applianceAlloc", "repro/internal/core.republish"}

// applianceAlloc returns the bytes the process has allocated outside
// notAppliance, as the memory profile has them — every allocation, while
// runtime.MemProfileRate is 1.
func applianceAlloc() int64 {
	runtime.GC() // publishes the profile up to now
	recs := make([]runtime.MemProfileRecord, 4096)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4)
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		other := false
		for more := true; more && !other; {
			var fr runtime.Frame
			fr, more = frames.Next()
			for _, prefix := range notAppliance {
				other = other || strings.HasPrefix(fr.Function, prefix)
			}
		}
		if !other {
			total += r.AllocBytes
		}
	}
	return total
}

// TestColdStageAllocatesNoExecutableSizedObject is the deterministic guard
// behind the benchmark claim: a cold invocation — fetch, logon, stage,
// submit, collect — of a 1 MB executable allocates a fraction of its size
// on the appliance, whether the bytes stream into one PUT (the paper
// profile, ~30 KB measured with the transport, across the paper's WAN
// or not) or the stored gzip goes out in chunks
// (production, ~50 KB). Each run of the production row publishes a new
// version first (republish, outside the count), so the sites hold none of
// its chunks and every one is shipped. The grid's goroutines and the
// pipe's buffer are left out of every count (notAppliance).
func TestColdStageAllocatesNoExecutableSizedObject(t *testing.T) {
	bubble.Run(func() {
		const size = 1 << 20
		for _, tc := range []struct {
			profile string
			knobs   func(*Config)
			opts    []fixtureOpt
			bar     int64
		}{
			{"paper", nil, []fixtureOpt{overWAN()}, 56 << 10},
			{"production", func(cfg *Config) {
				cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL = true, true, 100*time.Hour
				cfg.PushEvents, cfg.CoalesceStaging = true, true
				cfg.ChunkedStaging, cfg.WireCompression, cfg.DataAwarePlacement = true, true, true
			}, nil, size / 4},
			{"paper-real-sites", nil, nil, 56 << 10},
		} {
			t.Run(tc.profile, func(t *testing.T) {
				defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
				runtime.MemProfileRate = 1
				f := newFixture(t, tc.knobs, tc.opts...)
				base := f.uploadPadded(t, "big", "echo big\n", size)
				const runs = 6
				versions := make([][]byte, runs)
				for i := range versions {
					// A mark of its own every 4 KB of the comment filler: no
					// chunk of one version's stored gzip is another's.
					versions[i] = slices.Clone(base)
					for j := 200 + i; j < size; j += 4 << 10 {
						if versions[i][j] != '#' && versions[i][j] != '\n' {
							versions[i][j] = '.'
						}
					}
				}
				meta, err := f.parts.DB.Table(ExecutablesTable).Stat("BigService")
				must(t, err)
				uploaded := f.ons.SubmitStats().Uploads
				run := func(i int) {
					if i >= 0 && tc.knobs != nil {
						republish(t, f, meta.Meta, versions[i])
					}
					// Cold again: nothing staged, nothing known of any site.
					f.ons.mu.Lock()
					delete(f.ons.staged, "BigService")
					f.ons.mu.Unlock()
					f.ons.forgetPossession("BigService")
					if out, err := f.ons.ExecuteAndWait("BigService", nil); err != nil || out != "big\n" {
						t.Fatalf("run %d: %q, %v", i, out, err)
					}
				}
				// No collection inside the window, so that every pool keeps
				// what it was given.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				run(-1) // warms pools and connections
				before := applianceAlloc()
				for i := range runs {
					run(i)
				}
				spent := applianceAlloc() - before
				if got := f.ons.SubmitStats().Uploads - uploaded; got != runs+1 {
					t.Fatalf("%d uploads in %d invocations: not every one was cold", got, runs+1)
				}
				if st := f.ons.StageStats(); tc.knobs != nil && (st.ChunkedUploads != runs+1 || st.Fallbacks != 0 ||
					st.WireBytes >= st.LogicalBytes || st.ChunksDeduped != 0) {
					t.Fatalf("production did not ship every version's stored gzip in chunks: %+v", st)
				}
				if perOp := spent / runs; perOp > tc.bar {
					t.Fatalf("a cold invocation of a %d B executable allocates %d B", size, perOp)
				}
			})
		}
	})
}

// republish stores content as BigService's next version; what it
// allocates is the test's, not the appliance's (notAppliance).
func republish(t *testing.T, f *fixture, meta map[string]string, content []byte) {
	must(t, f.parts.DB.Table(ExecutablesTable).Put("BigService", meta, content))
}

// TestPaperProfileReleasesSessions: without a session cache every
// invocation logs on for itself, and is logged out when it is over.
func TestPaperProfileReleasesSessions(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadPadded(t, "brief", "echo brief\n", 1<<10)
		const invocations = 200
		for range invocations {
			_, err := f.ons.ExecuteAndWait("BriefService", nil)
			must(t, err)
		}
		if got := f.parts.Agent.Logons(); got != invocations {
			t.Fatalf("%d logons for %d invocations", got, invocations)
		}
		waitFor(t, func() bool { return f.parts.Agent.SessionCount() == 0 })
	})
}
