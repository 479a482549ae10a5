package core

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/blobdb/blobtest"
	"repro/internal/cyberaide"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
	"repro/internal/wsdl"
)

type fixture struct {
	ons   *OnServe
	env   *gridenv.Env
	rec   *metrics.Recorder
	clock *vtime.Scaled
	cfg   Config
	parts Parts
	// probes logs the cost-model calls made through the fixture's Probe
	// (by the core, the database and the agent) while switched on.
	probes *probeLog
}

// newFixture wires a full onServe over a two-site grid with fast polling
// so invocations finish quickly under the scaled clock.
func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	return newFixtureHTTP(t, nil, mutate)
}

// newFixtureHTTP is newFixture with a caller-supplied grid-bound HTTP
// client (the staging tests inject transport faults there).
func newFixtureHTTP(t *testing.T, gridHTTP *http.Client, mutate func(*Config)) *fixture {
	return newFixtureTraced(t, gridHTTP, nil, mutate)
}

// newFixtureTraced is newFixtureHTTP with a shared span collector wired
// into every grid service and the onServe core.
func newFixtureTraced(t *testing.T, gridHTTP *http.Client, col *trace.Collector, mutate func(*Config)) *fixture {
	return newFixtureDB(t, nil, gridHTTP, col, mutate)
}

// newFixtureDB is newFixtureTraced over a database the caller opened (and
// closes); nil opens a fresh in-memory one.
func newFixtureDB(t *testing.T, db *blobdb.DB, gridHTTP *http.Client, col *trace.Collector, mutate func(*Config)) *fixture {
	t.Helper()
	clk := vtime.NewScaled(20000)
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{
			{Name: "siteA", Nodes: 2, CoresPerNode: 4},
			{Name: "siteB", Nodes: 2, CoresPerNode: 4},
		},
		Trace: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	// At scale 20000 the default 5s event-stream heartbeat is 0.25ms of
	// real time, so the client's 3-heartbeat liveness budget (0.75ms)
	// false-trips on scheduler jitter; a 10-minute virtual heartbeat
	// keeps the liveness check meaningful under dilation.
	env.Gatekeeper.SetHeartbeatInterval(10 * time.Minute)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	probes := &probeLog{Clock: clk}
	rec := metrics.NewRecorder(probes, 3*time.Second)
	probes.rec = rec
	probe := metrics.NewProbe(rec)
	if db == nil {
		db, err = blobdb.Open(blobdb.Options{Clock: clk, Probe: probe, Cost: metrics.DefaultCost()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
	}
	cfg := Config{
		Clock:             clk,
		Probe:             probe,
		Cost:              metrics.DefaultCost(),
		PollInterval:      2 * time.Second,
		InvocationTimeout: time.Hour,
		Trace:             col,
	}
	parts := Parts{
		DB:        db,
		Container: soap.NewServer(probe, metrics.DefaultCost()),
		Registry:  uddi.NewRegistry(clk),
		Agent: cyberaide.New(cyberaide.Options{
			Endpoints: env.Endpoints(), Clock: clk, Probe: probe, Cost: metrics.DefaultCost(),
			HTTP: gridHTTP,
		}),
		BaseURL: "http://appliance.test",
	}
	if col != nil {
		parts.Tracing = trace.NewTracer("onserve", clk, col)
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
	return &fixture{ons: ons, env: env, rec: rec, clock: clk, cfg: cfg, parts: parts, probes: probes}
}

// hubAlone makes the poll hub f's collector with no event stream in
// front of it: the rung push falls back to, which no configuration
// selects. Call it before the first invocation.
func (f *fixture) hubAlone(shards int) *fixture {
	f.ons.collect = newPollHub(f.ons, shards)
	return f
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

func TestUploadAndGenerate(t *testing.T) {
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
}

func TestUploadValidation(t *testing.T) {
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
}

func TestDuplicateUploadRejected(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	_, err := f.ons.UploadAndGenerate("alice", "montecarlo.gsh", "again", nil, []byte("echo x\n"))
	if err == nil {
		t.Fatal("duplicate service published")
	}
}

func TestInvokeEndToEnd(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "314"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "pi=314\n" {
		t.Fatalf("output %q", out)
	}
}

func TestInvokeStagesAndRunsOnGrid(t *testing.T) {
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
}

func TestInvokeUnknownService(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ons.Invoke("GhostService", nil); !errors.Is(err, ErrNoSuchService) {
		t.Fatalf("got %v", err)
	}
}

func TestInvokeFailingJob(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ons.UploadAndGenerate("alice", "boom.gsh", "always fails", nil,
		[]byte("fail exploded\n")); err != nil {
		t.Fatal(err)
	}
	_, err := f.ons.ExecuteAndWait("BoomService", nil)
	if err == nil || !strings.Contains(err.Error(), "FAILED") {
		t.Fatalf("got %v", err)
	}
}

func TestTentativePollingAccumulatesOutput(t *testing.T) {
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
}

func TestCancelInvocation(t *testing.T) {
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
	select {
	case <-inv.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatal("cancel never completed")
	}
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
}

func TestStagingCacheAvoidsReupload(t *testing.T) {
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
}

func TestStagingCacheReplicatesAcrossSites(t *testing.T) {
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
	site.Store().Put("/O=Repro/CN=alice", "hog.gsh", []byte("emit 1s 10000 t\n"))
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
		t.Skipf("broker picked the same site; replication path not exercised")
	}
	<-inv2.DoneChan()
	if inv2.State() != InvDone {
		t.Fatalf("replicated invocation %s: %s", inv2.State(), inv2.Message())
	}
	if out := inv2.Output(); out != "good copy\n" {
		t.Fatalf("output %q", out)
	}
}

func TestNoStagingCacheReuploadsEveryTime(t *testing.T) {
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
}

func TestStageInDataService(t *testing.T) {
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
}

func TestSetStageInValidation(t *testing.T) {
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
}

func TestDeleteService(t *testing.T) {
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
}

func TestServicesListing(t *testing.T) {
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
}

func TestDoubleWriteAccounting(t *testing.T) {
	stock := newFixture(t, nil)
	stock.uploadDemo(t)
	stockWrites := stock.rec.Total(metrics.DiskWrite)

	direct := newFixture(t, func(cfg *Config) { cfg.DirectDBWrite = true })
	direct.uploadDemo(t)
	directWrites := direct.rec.Total(metrics.DiskWrite)

	if stockWrites <= directWrites {
		t.Fatalf("double-write path (%v) should write more than direct path (%v)", stockWrites, directWrites)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}, Parts{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNewRejectsKnobsWithoutChunkedStaging(t *testing.T) {
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
}

func TestWatchdogStop(t *testing.T) {
	clk := vtime.NewScaled(20000)
	fired := false
	wd := NewWatchdog(clk, time.Hour, func() { fired = true })
	wd.Stop()
	wd.Stop() // idempotent
	time.Sleep(5 * time.Millisecond)
	if fired {
		t.Fatal("stopped watchdog fired")
	}
}

func TestWatchdogFires(t *testing.T) {
	clk := vtime.NewScaled(20000)
	wd := NewWatchdog(clk, 10*time.Second, func() {})
	select {
	case <-wd.Fired():
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}
	wd.Stop()
}

func TestGeneratedServiceOverSOAP(t *testing.T) {
	// Full SaaS loop through the deployed SOAP service, as a remote
	// client would drive it.
	f := newFixture(t, nil)
	f.uploadDemo(t)
	// The container is not mounted on a real HTTP server in this fixture;
	// mount it.
	hs := newHTTPServer(t, f.parts.Container)
	var c soap.Client
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
}

func TestGeneratedServiceRejectsBadArgs(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	hs := newHTTPServer(t, f.parts.Container)
	var c soap.Client
	url := hs + "/services/MontecarloService"
	ns := "urn:onserve:MontecarloService"
	_, err := c.Call(url, ns, "execute", []soap.Param{{Name: "digits", Value: "not-a-number"}}, nil)
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("got %v", err)
	}
}
