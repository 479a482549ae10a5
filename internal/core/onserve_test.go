package core

import (
	"errors"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/blobdb/blobtest"
	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

type fixture struct {
	ons   *OnServe
	env   *gridenv.Env
	rec   *metrics.Recorder
	cfg   Config
	parts Parts
	// probes logs the cost-model calls made through the fixture's Probe
	// (by the core, the database and the agent) while switched on.
	probes *probeLog
}

// gridNet is the in-process network every fixture's grid listens on, and
// overGrid hop's transport across it: a fault fake in these tests hands
// what it lets through to overGrid, as production's to hop.Shared(). A
// fixture closes overGrid's idle connections as it goes: each pipe belongs
// to the bubble of the test that dialled it.
var (
	gridNet  = netsim.NewNet()
	overGrid = hop.NewTransport(gridNet.DialContext)
)

// TestMain runs the package's tests where a fixture can be built: in a
// bubble, under GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

// newFixture wires a full onServe over a two-site grid and gridNet: call
// it in a bubble, where the time package's clock is virtual.
func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	return newFixtureHTTP(t, nil, mutate)
}

// newFixtureHTTP is newFixture with a caller-supplied grid-bound
// transport (the staging tests inject transport faults there); nil is
// hop's over gridNet.
func newFixtureHTTP(t *testing.T, grid http.RoundTripper, mutate func(*Config)) *fixture {
	return newFixtureTraced(t, grid, nil, mutate)
}

// newFixtureTraced is newFixtureHTTP with a shared span collector wired
// into every grid service and the onServe core.
func newFixtureTraced(t *testing.T, grid http.RoundTripper, col *trace.Collector, mutate func(*Config)) *fixture {
	return newFixtureDB(t, nil, grid, col, mutate)
}

// newFixtureDB is newFixtureTraced over a database the caller opened (and
// closes); nil opens a fresh in-memory one.
func newFixtureDB(t *testing.T, db *blobdb.DB, grid http.RoundTripper, col *trace.Collector, mutate func(*Config)) *fixture {
	t.Helper()
	t.Cleanup(overGrid.CloseIdleConnections)
	env, err := gridenv.Start(gridenv.Options{
		Sites: []gridsim.SiteConfig{
			{Name: "siteA", Nodes: 2, CoresPerNode: 4},
			{Name: "siteB", Nodes: 2, CoresPerNode: 4},
		},
		Trace: col,
		Net:   gridNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	probes := &probeLog{}
	rec := metrics.NewRecorder(3 * time.Second)
	rec.Observe = probes.observe
	probe := metrics.NewProbe(rec)
	if db == nil {
		db, err = blobdb.Open(blobdb.Options{Probe: probe, Cost: metrics.DefaultCost()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
	}
	cfg := Config{
		Probe:             probe,
		Cost:              metrics.DefaultCost(),
		PollInterval:      2 * time.Second,
		InvocationTimeout: time.Hour,
		Trace:             col,
	}
	parts := Parts{
		DB:        db,
		Container: soap.NewServer(probe, metrics.DefaultCost()),
		Registry:  uddi.NewRegistry(nil),
		Agent: cyberaide.New(cyberaide.Options{
			Endpoints: env.Endpoints(), Probe: probe, Cost: metrics.DefaultCost(),
			Dial: gridNet.DialContext, Transport: grid,
		}),
		BaseURL: "http://appliance.test",
	}
	if col != nil {
		parts.Tracing = trace.NewTracer("onserve", nil, col)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ons, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	ons.RegisterUser("alice", UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	// Runs before any database is closed: whatever the test did, nothing
	// may have written into an executable's shared bytes.
	t.Cleanup(func() { blobtest.VerifyStored(t, db) })
	return &fixture{ons: ons, env: env, rec: rec, cfg: cfg, parts: parts, probes: probes}
}

const demoProgram = "echo pi=${digits}\ncompute 1s\nwrite result.dat 256\n"

func (f *fixture) uploadDemo(t *testing.T) *uddi.Record {
	t.Helper()
	rec, err := f.ons.UploadAndGenerate("alice", "montecarlo.gsh", "estimates pi",
		[]wsdl.ParamDef{{Name: "digits", Type: wsdl.TypeInt}}, []byte(demoProgram))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestServiceNameFor(t *testing.T) {
	ok := map[string]string{
		"montecarlo.gsh":  "MontecarloService",
		"word-count.gsh":  "WordCountService",
		"my_app.v2.gsh":   "MyAppV2Service",
		"Already":         "AlreadyService",
		"nested name.gsh": "NestedNameService",
	}
	for in, want := range ok {
		got, err := ServiceNameFor(in)
		if err != nil || got != want {
			t.Errorf("ServiceNameFor(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "...", "bad/name.gsh", "ok?.gsh"} {
		if _, err := ServiceNameFor(bad); !errors.Is(err, ErrBadName) {
			t.Errorf("ServiceNameFor(%q) err = %v", bad, err)
		}
	}
}

// TestTicketNamesItsService: a ticket carries its service's name, which
// TicketService alone reads back; every other string is refused. A ticket
// costs one allocation, and tickets sort in issue order whatever their
// services are called.
func TestTicketNamesItsService(t *testing.T) {
	for _, file := range []string{"monte.gsh", "Äpfel.gsh", "数据 v2.gsh"} {
		svc, err := ServiceNameFor(file)
		if err != nil {
			t.Fatal(err)
		}
		ticket := newTicket(7, svc)
		if got, ok := TicketService(ticket); !ok || got != svc {
			t.Errorf("TicketService(%q) = %q, %v; want %q", ticket, got, ok, svc)
		}
	}
	for _, bad := range []string{"", "inv-", "inv-000001-abcdef012345", "t-1", "inv-000001-S-abcdef01234",
		"inv-000001-S-abcdef0123456", "inv-000001-S-ABCDEF012345", "inv-00x001-S-abcdef012345",
		"inv--S-abcdef012345", "inv-000001--abcdef012345", "inv-000001-A-B-abcdef012345", "xinv-000001-S-abcdef012345"} {
		if got, ok := TicketService(bad); ok {
			t.Errorf("TicketService(%q) = %q, want refused", bad, got)
		}
	}
	// Under the race detector crypto/rand's buffer escapes, one more.
	if allocs := testing.AllocsPerRun(100, func() { newTicket(42, "MonteService") }); allocs != 1 && !raceEnabled {
		t.Errorf("newTicket allocates %.0f objects, want 1", allocs)
	}
	names := []string{"ZService", "AService", "MService", "数据V2Service"}
	var tickets []string
	for seq := 1; seq <= 1200; seq++ {
		tickets = append(tickets, newTicket(seq, names[seq%len(names)]))
	}
	if !sort.StringsAreSorted(tickets) {
		t.Error("tickets do not sort in issue order")
	}
}

func TestUploadAndGenerate(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		rec := f.uploadDemo(t)
		if rec.Name != "MontecarloService" {
			t.Fatalf("published %q", rec.Name)
		}
		if !strings.HasSuffix(rec.Endpoint, "/services/MontecarloService") {
			t.Fatalf("endpoint %q", rec.Endpoint)
		}
		// Deployed in the container with the full operation set.
		svc, ok := f.parts.Container.Lookup("MontecarloService")
		if !ok {
			t.Fatal("service not deployed")
		}
		for _, op := range []string{"execute", "status", "output", "wait", "cancel"} {
			if svc.Def.Operation(op) == nil {
				t.Errorf("operation %s missing", op)
			}
		}
		// Stored in the database.
		if _, err := f.parts.DB.Table(ExecutablesTable).Stat("MontecarloService"); err != nil {
			t.Fatal(err)
		}
		// Discoverable through UDDI.
		if got := f.parts.Registry.Find("Monte%"); len(got) != 1 {
			t.Fatalf("uddi find %v", got)
		}
		// Info reflects the upload.
		info, err := f.ons.ServiceInfo("MontecarloService")
		if err != nil {
			t.Fatal(err)
		}
		if info.Owner != "alice" || len(info.Params) != 1 || info.Params[0].Name != "digits" {
			t.Fatalf("info %+v", info)
		}
	})
}

func TestUploadValidation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.UploadAndGenerate("stranger", "x.gsh", "", nil, []byte("echo x\n")); !errors.Is(err, ErrNoSuchUser) {
			t.Fatalf("got %v", err)
		}
		if _, err := f.ons.UploadAndGenerate("alice", "x.gsh", "", nil, []byte("not a program")); !errors.Is(err, ErrBadProgram) {
			t.Fatalf("got %v", err)
		}
		if _, err := f.ons.UploadAndGenerate("alice", "x.gsh", "",
			[]wsdl.ParamDef{{Name: "p", Type: "blob"}}, []byte("echo x\n")); !errors.Is(err, ErrBadName) {
			t.Fatalf("got %v", err)
		}
		if _, err := f.ons.UploadAndGenerate("alice", "///", "", nil, []byte("echo x\n")); !errors.Is(err, ErrBadName) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestDuplicateUploadRejected(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		_, err := f.ons.UploadAndGenerate("alice", "montecarlo.gsh", "again", nil, []byte("echo x\n"))
		if err == nil {
			t.Fatal("duplicate service published")
		}
	})
}

func TestInvokeEndToEnd(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "314"})
		if err != nil {
			t.Fatal(err)
		}
		if out != "pi=314\n" {
			t.Fatalf("output %q", out)
		}
	})
}

func TestInvokeStagesAndRunsOnGrid(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "3"})
		if err != nil {
			t.Fatal(err)
		}
		if inv.Site == "" || inv.JobID == "" || !strings.HasPrefix(inv.Ticket, "inv-") {
			t.Fatalf("invocation %+v", inv)
		}
		job, err := f.env.Grid.Job(inv.JobID)
		if err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if inv.State() != InvDone {
			t.Fatalf("state %s: %s", inv.State(), inv.Message())
		}
		if job.State() != gridsim.Succeeded {
			t.Fatalf("grid job %s", job.State())
		}
		// The executable really was staged at the chosen site.
		site, _ := f.env.Grid.Site(inv.Site)
		if _, err := site.Store().Size("/O=Repro/CN=alice", "MontecarloService.gsh"); err != nil {
			t.Fatal("staged file missing:", err)
		}
	})
}

func TestInvokeUnknownService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.Invoke("GhostService", nil); !errors.Is(err, ErrNoSuchService) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestInvokeFailingJob(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.UploadAndGenerate("alice", "boom.gsh", "always fails", nil,
			[]byte("fail exploded\n")); err != nil {
			t.Fatal(err)
		}
		_, err := f.ons.ExecuteAndWait("BoomService", nil)
		if err == nil || !strings.Contains(err.Error(), "FAILED") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestTentativePollingAccumulatesOutput(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.UploadAndGenerate("alice", "ticker.gsh", "", nil,
			[]byte("emit 2s 5 line\n")); err != nil {
			t.Fatal(err)
		}
		inv, err := f.ons.Invoke("TickerService", nil)
		if err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if got := strings.Count(inv.Output(), "line"); got != 5 {
			t.Fatalf("final output has %d lines: %q", got, inv.Output())
		}
		// Polling wrote output snapshots to disk repeatedly.
		if f.rec.Total(metrics.DiskWrite) == 0 {
			t.Fatal("no poll-induced disk writes accounted")
		}
	})
}

func TestCancelInvocation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		if _, err := f.ons.UploadAndGenerate("alice", "slow.gsh", "", nil,
			[]byte("emit 2s 10000 t\n")); err != nil {
			t.Fatal(err)
		}
		inv, err := f.ons.Invoke("SlowService", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.ons.CancelInvocation(inv.Ticket); err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if inv.State() != InvCancelled {
			t.Fatalf("state %s", inv.State())
		}
		if err := f.ons.CancelInvocation(inv.Ticket); err != nil {
			t.Fatalf("cancel of terminal invocation: %v", err)
		}
		if _, err := f.ons.Invocation("inv-xxxxxx-nope"); !errors.Is(err, ErrNoTicket) {
			t.Fatalf("got %v", err)
		}
		if err := f.ons.CancelInvocation("inv-xxxxxx-nope"); !errors.Is(err, ErrNoTicket) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestStagingCacheAvoidsReupload(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.StagingCache = true })
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
		inv1 := f.ons.Invocations()[0]
		site, _ := f.env.Grid.Site(inv1.Site)
		// Poison the staged copy: if onServe re-uploads, it will be repaired;
		// with the cache it stays poisoned and the job fails.
		if err := site.Store().Put("/O=Repro/CN=alice", "MontecarloService.gsh", []byte("fail poisoned\n")); err != nil {
			t.Fatal(err)
		}
		inv2, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "2"})
		if err != nil {
			t.Fatal(err)
		}
		<-inv2.DoneChan()
		if inv2.Site == inv1.Site && inv2.State() == InvDone {
			t.Fatal("staging cache did not prevent re-upload")
		}
	})
}

func TestStagingCacheReplicatesAcrossSites(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.StagingCache = true })
		// A long-running first job keeps its site busy so the broker sends
		// the second invocation to the other site.
		if _, err := f.ons.UploadAndGenerate("alice", "rep.gsh", "", nil,
			[]byte("compute 100ms\necho good copy\n")); err != nil {
			t.Fatal(err)
		}
		inv1, err := f.ons.Invoke("RepService", nil)
		if err != nil {
			t.Fatal(err)
		}
		<-inv1.DoneChan()
		if inv1.State() != InvDone {
			t.Fatalf("first invocation %s: %s", inv1.State(), inv1.Message())
		}
		// Corrupt the database copy: if the appliance re-uploads from the DB
		// the next job fails; replication from the already-staged good copy
		// succeeds.
		meta := map[string]string{"owner": "alice", "description": "", "file_name": "rep.gsh", "params": "null"}
		if err := f.parts.DB.Table(ExecutablesTable).Put("RepService", meta, []byte("fail poisoned-db\n")); err != nil {
			t.Fatal(err)
		}
		// Saturate inv1's site so the broker must pick the sibling.
		site, _ := f.env.Grid.Site(inv1.Site)
		site.Store().Put("/O=Repro/CN=alice", "hog.gsh", []byte("compute 23h\n"))
		var hogs []string
		for site.Stats().FreeSlots > 0 {
			j, err := site.Submit(jsdlFor("hog.gsh"))
			if err != nil {
				t.Fatal(err)
			}
			hogs = append(hogs, j.ID)
		}
		defer func() {
			for _, id := range hogs {
				site.Cancel(id)
			}
		}()

		inv2, err := f.ons.Invoke("RepService", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inv2.Site == inv1.Site {
			t.Fatalf("placement picked the saturated site %s over its idle sibling", inv2.Site)
		}
		<-inv2.DoneChan()
		if inv2.State() != InvDone {
			t.Fatalf("replicated invocation %s: %s", inv2.State(), inv2.Message())
		}
		if out := inv2.Output(); out != "good copy\n" {
			t.Fatalf("output %q", out)
		}
	})
}

func TestNoStagingCacheReuploadsEveryTime(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil) // cache off: the paper's behaviour
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
		inv1 := f.ons.Invocations()[0]
		site, _ := f.env.Grid.Site(inv1.Site)
		site.Store().Put("/O=Repro/CN=alice", "MontecarloService.gsh", []byte("fail poisoned\n"))
		// Re-invoking repairs the staged copy because the file is re-uploaded.
		out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "2"})
		if err != nil {
			t.Fatalf("re-invocation failed (%q): %v", out, err)
		}
	})
}

func TestStageInDataService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		// A data-processing service: reads and processes a corpus the owner
		// stages separately.
		if _, err := f.ons.UploadAndGenerate("alice", "wordcount.gsh", "counts words", nil,
			[]byte("process corpus.txt 1000\necho counted\n")); err != nil {
			t.Fatal(err)
		}
		if err := f.ons.SetStageIn("WordcountService", []string{"corpus.txt"}); err != nil {
			t.Fatal(err)
		}
		info, err := f.ons.ServiceInfo("WordcountService")
		if err != nil || len(info.StageIn) != 1 || info.StageIn[0] != "corpus.txt" {
			t.Fatalf("info %+v err %v", info, err)
		}

		// Without the data staged anywhere, invocation fails with a staging
		// error rather than a confusing runtime one.
		if _, err := f.ons.Invoke("WordcountService", nil); err == nil ||
			!strings.Contains(err.Error(), "not staged") {
			t.Fatalf("got %v", err)
		}

		// The owner stages the corpus; invocation now runs and reads it.
		if err := f.env.StageEverywhere("/O=Repro/CN=alice", "corpus.txt",
			[]byte(strings.Repeat("word ", 10_000))); err != nil {
			t.Fatal(err)
		}
		out, err := f.ons.ExecuteAndWait("WordcountService", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "process corpus.txt: 50000 bytes") || !strings.Contains(out, "counted") {
			t.Fatalf("output %q", out)
		}
	})
}

func TestSetStageInValidation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		if err := f.ons.SetStageIn("GhostService", []string{"x"}); !errors.Is(err, ErrNoSuchService) {
			t.Fatalf("got %v", err)
		}
		for _, bad := range [][]string{{""}, {"a/b"}, {"a,b"}} {
			if err := f.ons.SetStageIn("MontecarloService", bad); !errors.Is(err, ErrBadName) {
				t.Fatalf("SetStageIn(%v) err %v", bad, err)
			}
		}
	})
}

func TestDeleteService(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		if err := f.ons.DeleteService("MontecarloService"); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.parts.Container.Lookup("MontecarloService"); ok {
			t.Fatal("service still deployed")
		}
		if f.parts.Registry.Len() != 0 {
			t.Fatal("uddi record remains")
		}
		if _, err := f.ons.ServiceInfo("MontecarloService"); !errors.Is(err, ErrNoSuchService) {
			t.Fatalf("got %v", err)
		}
		if err := f.ons.DeleteService("MontecarloService"); !errors.Is(err, ErrNoSuchService) {
			t.Fatalf("double delete: %v", err)
		}
		// Name is free for a fresh upload.
		f.uploadDemo(t)
	})
}

func TestServicesListing(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		if _, err := f.ons.UploadAndGenerate("alice", "wordcount.gsh", "", nil, []byte("echo 1\n")); err != nil {
			t.Fatal(err)
		}
		list, err := f.ons.Services()
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 2 {
			t.Fatalf("services %+v", list)
		}
	})
}

func TestDoubleWriteAccounting(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		stock := newFixture(t, nil)
		stock.uploadDemo(t)
		stockWrites := stock.rec.Total(metrics.DiskWrite)

		direct := newFixture(t, func(cfg *Config) { cfg.DirectDBWrite = true })
		direct.uploadDemo(t)
		directWrites := direct.rec.Total(metrics.DiskWrite)

		if stockWrites <= directWrites {
			t.Fatalf("double-write path (%v) should write more than direct path (%v)", stockWrites, directWrites)
		}
	})
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}, Parts{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNewRejectsKnobsWithoutChunkedStaging(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Placement probes and stored-gzip shipping both ride the chunk
		// store; accepted without it they would be silently inert.
		for name, set := range map[string]func(*Config){
			"DataAwarePlacement": func(c *Config) { c.DataAwarePlacement = true },
			"WireCompression":    func(c *Config) { c.WireCompression = true },
		} {
			f := newFixture(t, nil)
			cfg := f.cfg
			set(&cfg)
			if _, err := New(cfg, f.parts); err == nil || !strings.Contains(err.Error(), "require ChunkedStaging") {
				t.Errorf("%s without ChunkedStaging: %v", name, err)
			}
			cfg.ChunkedStaging = true
			if _, err := New(cfg, f.parts); err != nil {
				t.Errorf("%s with ChunkedStaging: %v", name, err)
			}
		}
	})
}

// watchdogOn is an onServe whose only part the watchdog reaches is an
// agent with no session, so its kill cancels nothing on any grid, and an
// invocation for it to watch.
func watchdogOn(timeout time.Duration) (*OnServe, *Invocation) {
	o := &OnServe{cfg: Config{InvocationTimeout: timeout}, parts: Parts{Agent: cyberaide.New(cyberaide.Options{})}}
	return o, &Invocation{state: InvRunning, done: make(chan struct{})}
}

func TestWatchdogStop(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		o, inv := watchdogOn(time.Hour)
		wd := o.armWatchdog(inv)
		wd.Stop()
		wd.Stop() // idempotent
		time.Sleep(2 * time.Hour)
		bubble.Wait()
		if st := inv.State(); st.Terminal() {
			t.Fatalf("a stopped watchdog ended the invocation %s", st)
		}
	})
}

func TestWatchdogFires(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		o, inv := watchdogOn(10 * time.Second)
		wd := o.armWatchdog(inv)
		time.Sleep(10*time.Second - 1)
		bubble.Wait()
		if inv.State().Terminal() {
			t.Fatal("watchdog fired before its deadline")
		}
		time.Sleep(1)
		bubble.Wait()
		if inv.State() != InvKilled || !strings.Contains(inv.Message(), "watchdog") {
			t.Fatalf("at its deadline: %s (%s), want KILLED by the watchdog", inv.State(), inv.Message())
		}
		if wd.Stop() {
			t.Fatal("a watchdog that fired could still be stopped")
		}
	})
}

func TestGeneratedServiceOverSOAP(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Full SaaS loop through the deployed SOAP service, as a remote
		// client would drive it.
		f := newFixture(t, nil)
		f.uploadDemo(t)
		// The container is not mounted on a real HTTP server in this fixture;
		// mount it.
		hs, c := newSOAPServer(t, f.parts.Container)
		url := hs + "/services/MontecarloService"
		ns := "urn:onserve:MontecarloService"
		ticket, err := c.Call(url, ns, "execute", []soap.Param{{Name: "digits", Value: "42"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Call(url, ns, "wait", []soap.Param{{Name: "ticket", Value: ticket}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out != "pi=42\n" {
			t.Fatalf("output %q", out)
		}
		stJSON, err := c.Call(url, ns, "status", []soap.Param{{Name: "ticket", Value: ticket}}, nil)
		if err != nil || !strings.Contains(stJSON, "DONE") {
			t.Fatalf("status %q err %v", stJSON, err)
		}
	})
}

func TestGeneratedServiceRejectsBadArgs(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadDemo(t)
		hs, c := newSOAPServer(t, f.parts.Container)
		url := hs + "/services/MontecarloService"
		ns := "urn:onserve:MontecarloService"
		_, err := c.Call(url, ns, "execute", []soap.Param{{Name: "digits", Value: "not-a-number"}}, nil)
		var fault *soap.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("got %v", err)
		}
	})
}
