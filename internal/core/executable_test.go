package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/trace"
)

const aliceDN = "/O=Repro/CN=alice"

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// uploadPadded publishes program padded to size as <name>.gsh.
func (f *fixture) uploadPadded(t *testing.T, name, program string, size int) []byte {
	t.Helper()
	content := gsh.Pad([]byte(program), size)
	if _, err := f.ons.UploadAndGenerate("alice", name+".gsh", "", nil, content); err != nil {
		t.Fatal(err)
	}
	return content
}

// invokeLogged runs one invocation to its end and reports the cost-model
// calls Invoke made (the collector's are not in the window) and how many
// db.fetch spans the invocation recorded.
func (f *fixture) invokeLogged(t *testing.T, service string) (inv *Invocation, probes []string, fetches int) {
	t.Helper()
	probes = f.probes.record(func() {
		var err error
		if inv, err = f.ons.Invoke(service, nil); err != nil {
			t.Fatal(err)
		}
	})
	<-inv.DoneChan()
	if inv.State() != InvDone {
		t.Fatalf("invocation ended %s: %s", inv.State(), inv.Message())
	}
	spans, err := f.ons.InvocationTrace(inv.Ticket)
	if err != nil {
		t.Fatal(err)
	}
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
	f := newFixture(t, func(cfg *Config) {
		// Keep the tentative poller out of the window: its first tick is
		// 180 ms of real time away, an Invoke takes a few.
		cfg.PollInterval = time.Hour
		cfg.InvocationTimeout = 100 * time.Hour
	})
	content := f.uploadPadded(t, "paper", "echo paper\n", 64<<10)
	st, err := f.parts.DB.Table(ExecutablesTable).Stat("PaperService")
	if err != nil {
		t.Fatal(err)
	}
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
		got := f.probes.record(func() {
			inv, err := f.ons.Invoke("PaperService", nil)
			if err != nil {
				t.Fatal(err)
			}
			invs = append(invs, inv)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("invocation %d made cost-model calls\n  %q\nthe paper profile makes\n  %q", i, got, want)
		}
	}
	for _, inv := range invs {
		<-inv.DoneChan() // leave no poller behind
	}
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
	f := newFixture(t, func(cfg *Config) {
		cfg.ChunkedStaging = true
		cfg.ChunkBytes = 4 << 10
		cfg.WireCompression = true
	})
	v1 := f.uploadPadded(t, "same", "echo v1\n", 32<<10)
	v2 := gsh.Pad([]byte("echo v2\n"), 32<<10)
	if len(v2) != len(v1) {
		t.Fatalf("versions are %d and %d bytes, want equal", len(v1), len(v2))
	}
	tab := f.parts.DB.Table(ExecutablesTable)
	row, err := tab.Stat("SameService")
	if err != nil {
		t.Fatal(err)
	}
	gz1, _, _ := tab.GetCompressed("SameService")
	sess, _, err := f.ons.gridSession("alice", UserAuth{MyProxyUser: "alice", Passphrase: "pw"}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	open := func() *executable {
		t.Helper()
		exe, err := f.ons.openExecutable("SameService", nil)
		if err != nil {
			t.Fatal(err)
		}
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
		st, _ := f.env.Grid.Site(site)
		got, err := st.Store().Get(aliceDN, "SameService.gsh")
		if err != nil || !bytes.Equal(got, want) || sum != sha256Hex(want) {
			t.Fatalf("%s holds %d bytes (%v) under checksum %s, want the handle's version under %s", site, len(got), err, sum, sha256Hex(want))
		}
		after := f.ons.StageStats()
		if after.Fallbacks != before.Fallbacks || after.WireBytes-before.WireBytes >= uint64(len(want)) {
			t.Fatalf("%s was not staged over the stored gzip stream: %+v -> %+v", site, before, after)
		}
	}

	held := open() // pins v1 before the re-publish lands
	if err := tab.Put("SameService", row.Meta, v2); err != nil {
		t.Fatal(err)
	}
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
}

// TestHotInvokeReadsNoExecutable: with a copy staged, an invocation opens
// its handle and reads nothing through it — no row read or inflate charged,
// no db.fetch span, no stream — although the database has no blob cache to
// make a read cheap. The two ways a warm invocation can still need the
// content each run the fetch step exactly once, when they find out, read
// the one version the handle pinned as one stream, and end DONE.
func TestHotInvokeReadsNoExecutable(t *testing.T) {
	const size = 48 << 10
	// onlySite makes the cached scheduler snapshot offer one idle site.
	onlySite := func(f *fixture, name string) {
		f.ons.mu.Lock()
		f.ons.stats = []gridsim.SiteStats{{Name: name, Slots: 8, FreeSlots: 8}}
		f.ons.statsAt = f.clock.Now()
		f.ons.mu.Unlock()
	}

	t.Run("staged", func(t *testing.T) {
		f := newFixtureTraced(t, nil, trace.NewCollector(0, 0), func(cfg *Config) {
			cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL = true, true, 100*time.Hour
			cfg.ChunkedStaging, cfg.WireCompression, cfg.DataAwarePlacement = true, true, true
		})
		f.ons.probeTTL = 100 * time.Hour // 30 s is 1.5 ms of this clock
		content := f.uploadPadded(t, "hot", "echo hot\n", size)
		inflate := fmt.Sprintf("%s %d", metrics.CPU, time.Duration(
			float64(len(content))/metrics.DefaultCost().DecompressBps*float64(time.Second)))
		_, probes, fetches := f.invokeLogged(t, "HotService")
		if fetches != 1 || !slices.Contains(probes, inflate) {
			t.Fatalf("cold invocation: %d db.fetch spans, probes %q", fetches, probes)
		}
		inv, probes, fetches := f.invokeLogged(t, "HotService")
		if fetches != 0 || loads(probes) != 0 || slices.Contains(probes, inflate) {
			t.Fatalf("hot invocation read the executable: %d db.fetch spans, probes %q", fetches, probes)
		}
		if inv.Output() != "hot\n" {
			t.Fatalf("output %q", inv.Output())
		}
	})

	t.Run("replicate fails", func(t *testing.T) {
		f := newFixtureTraced(t, nil, trace.NewCollector(0, 0), func(cfg *Config) {
			cfg.StagingCache, cfg.StatsTTL = true, 100*time.Hour
		})
		content := f.uploadPadded(t, "fall", "echo fell through\n", size)
		first, _, _ := f.invokeLogged(t, "FallService")
		// The staged copy disappears from its site, and only the sibling
		// has room: the third-party transfer finds nothing to pull.
		src, _ := f.env.Grid.Site(first.Site)
		if err := src.Store().Delete(aliceDN, "FallService.gsh"); err != nil {
			t.Fatal(err)
		}
		sibling := map[string]string{"siteA": "siteB", "siteB": "siteA"}[first.Site]
		onlySite(f, sibling)
		inv, probes, fetches := f.invokeLogged(t, "FallService")
		if inv.Site != sibling || f.ons.SubmitStats().Uploads != 2 {
			t.Fatalf("ran at %s with %d uploads, want the fall-through upload to %s", inv.Site, f.ons.SubmitStats().Uploads, sibling)
		}
		if fetches != 1 || loads(probes) != 1 {
			t.Fatalf("fall-through fetched %d times (%d row reads), want once: %q", fetches, loads(probes), probes)
		}
		spans, _ := f.ons.InvocationTrace(inv.Ticket)
		byName, _ := indexSpans(spans)
		if st := byName["stage"]; len(st) != 1 || st[0].Attrs["wire"] != "stream" || st[0].Attrs["replicated_from"] != first.Site {
			t.Fatalf("stage spans %+v, want one that tried %s and then streamed", st, first.Site)
		}
		if puts := byName["ftp.put"]; len(puts) != 1 {
			t.Fatalf("%d ftp.put spans, want the one stream", len(puts))
		}
		f.ons.mu.Lock()
		sum := f.ons.staged["FallService"][sibling]
		f.ons.mu.Unlock()
		if inv.Output() != "fell through\n" || sum != sha256Hex(content) {
			t.Fatalf("output %q, staged checksum %s", inv.Output(), sum)
		}
	})

	t.Run("possession probe expired, raw wire", func(t *testing.T) {
		f := newFixtureTraced(t, nil, trace.NewCollector(0, 0), func(cfg *Config) {
			cfg.StagingCache, cfg.StatsTTL = true, 100*time.Hour
			cfg.ChunkedStaging, cfg.DataAwarePlacement = true, true
		})
		f.ons.probeTTL = time.Minute
		f.uploadPadded(t, "probe", "echo probed\n", size)
		f.invokeLogged(t, "ProbeService")
		f.clock.Sleep(2 * time.Minute)
		// Both sites' answers are stale: two probes, one chunking of the
		// raw executable, one fetch.
		sent := f.ons.PlacementStats().ProbesSent
		inv, probes, fetches := f.invokeLogged(t, "ProbeService")
		if got := f.ons.PlacementStats().ProbesSent - sent; got != 2 {
			t.Fatalf("%d possession probes, want 2", got)
		}
		if fetches != 1 || loads(probes) != 1 {
			t.Fatalf("re-probe fetched %d times (%d row reads), want once: %q", fetches, loads(probes), probes)
		}
		if inv.Output() != "probed\n" {
			t.Fatalf("output %q", inv.Output())
		}
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
	const size = 1 << 20
	for _, cacheBytes := range []int64{0, 8 << 20} {
		db, err := blobdb.Open(blobdb.Options{BlobCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		f := newFixtureDB(t, db, nil, nil, func(cfg *Config) {
			cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL = true, true, 100*time.Hour
			cfg.PushEvents = true
			cfg.InvocationTimeout, cfg.ProxyLifetime = 100*time.Hour, 100*time.Hour
		})
		f.uploadPadded(t, "big", "echo big\n", size)
		invoke := func() {
			if _, err := f.ons.ExecuteAndWait("BigService", nil); err != nil {
				t.Fatal(err)
			}
		}
		invoke() // cold: stages
		for _, name := range []string{"siteA", "siteB"} {
			site, _ := f.env.Grid.Site(name)
			if err := site.Store().Put(aliceDN, "BigService.gsh", []byte("echo big\n")); err != nil {
				t.Fatal(err)
			}
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
}
