package core

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/blobdb/blobtest"
	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/gram"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/hop"
	"repro/internal/hop/hoptest"
	"repro/internal/jsdl"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// TestMain runs the package's tests where a fixture can be built: in a
// bubble, under GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

// gridNet is the in-process network every fixture's grid listens on, and
// overGrid hop's transport across it: what a fixture's fault table (a
// hoptest.Faults: a rule is a path match, a "when" and one action) lets
// through goes to overGrid, as production's grid traffic goes to
// hop.Shared(). A fixture closes overGrid's idle connections as it goes:
// each pipe belongs to the bubble of the test that dialled it.
var (
	gridNet  = netsim.NewNet()
	overGrid = hop.NewTransport(gridNet.DialContext)
)

const aliceDN = "/O=Repro/CN=alice"

type fixture struct {
	ons   *OnServe
	env   *gridenv.Env
	rec   *metrics.Recorder
	cfg   Config
	parts Parts
	// probes logs the cost-model calls made through the fixture's Probe
	// (by the core, the database and the agent) while switched on.
	probes *probeLog
	// grid is the fault table every GRAM and GridFTP request crosses.
	grid *hoptest.Faults
	// col collects every service's spans when the fixture is traced.
	col *trace.Collector
}

// fixtureOpt changes what newFixture builds beside the Config: the grid,
// and the database (nil: a fresh in-memory one).
type fixtureOpt func(grid *gridenv.Options, db **blobdb.DB)

// traced shares one span collector (the fixture's col) between every grid
// service and the onServe core.
func traced() fixtureOpt {
	return func(grid *gridenv.Options, _ **blobdb.DB) { grid.Trace = trace.NewCollector(0, 0) }
}

// onDB builds the fixture over a database the caller opened and closes.
func onDB(db *blobdb.DB) fixtureOpt { return func(_ *gridenv.Options, into **blobdb.DB) { *into = db } }

// overWAN puts the paper's shaped WAN (~85 KB/s) between the appliance
// and the grid both ways: the grid's servers shape what they answer, the
// agent's dial and the fault table's way out what the appliance sends.
func overWAN() fixtureOpt {
	return func(grid *gridenv.Options, _ **blobdb.DB) { grid.Profile = netsim.WAN() }
}

// withSites replaces the two default sites.
func withSites(sites ...gridsim.SiteConfig) fixtureOpt {
	return func(grid *gridenv.Options, _ **blobdb.DB) { grid.Sites = sites }
}

// newFixture wires a full onServe, mutate applied to its Config, over a
// two-site grid on gridNet whose traffic crosses the fixture's fault
// table (empty until a test adds rules): call it in a bubble, where the
// time package's clock is virtual.
func newFixture(t *testing.T, mutate func(*Config), opts ...fixtureOpt) *fixture {
	t.Helper()
	t.Cleanup(overGrid.CloseIdleConnections)
	grid := gridenv.Options{
		Sites: []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}, {Name: "siteB", Nodes: 2, CoresPerNode: 4}},
		Net:   gridNet,
	}
	var db *blobdb.DB
	for _, o := range opts {
		o(&grid, &db)
	}
	env, err := gridenv.Start(grid)
	must(t, err)
	t.Cleanup(env.Close)
	_, err = env.AddUser("alice", "pw", 0)
	must(t, err)
	probes := &probeLog{}
	rec := metrics.NewRecorder(3 * time.Second)
	rec.Observe = probes.observe
	probe := metrics.NewProbe(rec, metrics.DefaultCost())
	if db == nil {
		db, err = blobdb.Open(blobdb.Options{Probe: probe})
		must(t, err)
		t.Cleanup(func() { db.Close() })
	}
	f := &fixture{env: env, rec: rec, probes: probes, grid: &hoptest.Faults{Out: overGrid}, col: grid.Trace}
	dial := gridNet.DialContext
	if grid.Profile != nil {
		dial = (&netsim.Dialer{Profile: grid.Profile, Net: gridNet}).DialContext
		out := hop.NewTransport(dial)
		f.grid.Out = out
		t.Cleanup(out.CloseIdleConnections)
	}
	f.cfg = Config{Probe: probe, PollInterval: 2 * time.Second, InvocationTimeout: time.Hour, Trace: f.col}
	f.parts = Parts{
		DB:        db,
		Container: soap.NewServer(probe),
		Registry:  uddi.NewRegistry(nil),
		Agent: cyberaide.New(cyberaide.Options{
			Endpoints: env.Endpoints(), Probe: probe, Dial: dial, Transport: f.grid,
		}),
		BaseURL: "http://appliance.test",
	}
	if f.col != nil {
		f.parts.Tracing = trace.NewTracer("onserve", nil, f.col)
	}
	if mutate != nil {
		mutate(&f.cfg)
	}
	f.ons, err = New(f.cfg, f.parts)
	must(t, err)
	f.ons.RegisterUser("alice", UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	// Runs before any database is closed: whatever the test did, nothing
	// may have written into an executable's shared bytes.
	t.Cleanup(func() { blobtest.VerifyStored(t, db) })
	return f
}

const demoProgram = "echo pi=${digits}\ncompute 1s\nwrite result.dat 256\n"

func (f *fixture) uploadDemo(t *testing.T) *uddi.Record {
	t.Helper()
	rec, err := f.ons.UploadAndGenerate("alice", "montecarlo.gsh", "estimates pi",
		[]wsdl.ParamDef{{Name: "digits", Type: wsdl.TypeInt}}, []byte(demoProgram))
	must(t, err)
	return rec
}

// digits is the demo service's one argument.
func digits(d string) map[string]string { return map[string]string{"digits": d} }

// demo runs the demo service (uploadDemo) with d digits to its end and
// returns its output.
func (f *fixture) demo(t *testing.T, d string) string {
	t.Helper()
	out, err := f.ons.ExecuteAndWait("MontecarloService", digits(d))
	if err != nil {
		t.Fatalf("%v (output %q)", err, out)
	}
	return out
}

// publish uploads program as alice's file and returns the service's name.
func (f *fixture) publish(t *testing.T, file, program string) string {
	t.Helper()
	rec, err := f.ons.UploadAndGenerate("alice", file, "", nil, []byte(program))
	must(t, err)
	return rec.Name
}

// uploadPadded publishes program padded to size as <name>.gsh.
func (f *fixture) uploadPadded(t *testing.T, name, program string, size int) []byte {
	t.Helper()
	content := gsh.Pad([]byte(program), size)
	f.publish(t, name+".gsh", string(content))
	return content
}

// invoke starts an invocation of service.
func (f *fixture) invoke(t *testing.T, service string, args map[string]string) *Invocation {
	t.Helper()
	inv, err := f.ons.Invoke(service, args)
	must(t, err)
	return inv
}

// ends waits for inv to end and requires it to end in state.
func ends(t *testing.T, inv *Invocation, state InvState) *Invocation {
	t.Helper()
	<-inv.DoneChan()
	if inv.State() != state {
		t.Fatalf("invocation ended %s (%s), want %s", inv.State(), inv.Message(), state)
	}
	return inv
}

// burst runs do(0) … do(n-1) at once and fails on the first error.
func burst(t *testing.T, n int, do func(i int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = do(i) }()
	}
	wg.Wait()
	must(t, errors.Join(errs...))
}

// waitFor lets every other goroutine of the test's bubble run until it
// blocks, and then requires cond. Terminal callbacks run on collector
// goroutines just after DoneChan closes, so map-shape assertions wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	bubble.Wait()
	if !cond() {
		t.Fatal("condition not reached")
	}
}

func jsdlFor(exe string) jsdl.Description { return jsdl.Description{Owner: aliceDN, Executable: exe} }

// fill occupies every free slot of site with an endless job, and returns
// what cancels them (also run at cleanup).
func fill(t *testing.T, site *gridsim.Site) (cancel func()) {
	t.Helper()
	must(t, site.Store().Put(aliceDN, "hog.gsh", []byte("compute 23h\n")))
	var hogs []string
	for site.Stats().FreeSlots > 0 {
		j, err := site.Submit(jsdlFor("hog.gsh"))
		must(t, err)
		hogs = append(hogs, j.ID)
	}
	cancel = func() {
		for _, id := range hogs {
			site.Cancel(id)
		}
	}
	t.Cleanup(cancel)
	return cancel
}

// site is the fixture grid's site of that name.
func (f *fixture) site(name string) *gridsim.Site {
	s, err := f.env.Grid.Site(name)
	if err != nil {
		panic(err)
	}
	return s
}

// probeLog is the Observe hook of the fixture's recorder. Every CPU
// charge, DiskRead and DiskWrite accounts exactly once, so the log says what each
// call was: kind, amount, order — the sequence the paper's figures are
// drawn from.
type probeLog struct {
	mu    sync.Mutex
	on    bool
	calls []string
}

// observe logs one accounting while recording. Amounts are whole
// nanoseconds or bytes; rounding drops the float noise of a rate.
func (l *probeLog) observe(k metrics.Kind, amount float64) {
	if k != metrics.CPU && k != metrics.DiskRead && k != metrics.DiskWrite {
		return
	}
	l.mu.Lock()
	if l.on {
		l.calls = append(l.calls, fmt.Sprintf("%s %.0f", k, math.Round(amount)))
	}
	l.mu.Unlock()
}

// record runs f with logging on and returns the calls made meanwhile.
func (l *probeLog) record(f func()) []string {
	l.mu.Lock()
	l.on, l.calls = true, nil
	l.mu.Unlock()
	f()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on = false
	return l.calls
}

// heldExecutable is a handle on blob as service's executable, pinned in a
// database of its own, for tests that drive one pipeline stage on a
// service the fixture's database never stored.
func heldExecutable(t *testing.T, o *OnServe, service string, blob []byte) *executable {
	db, err := blobdb.Open(blobdb.Options{})
	must(t, err)
	tab := db.Table(ExecutablesTable)
	must(t, tab.Put(service, nil, blob))
	row, err := tab.Open(service)
	must(t, err)
	return &executable{o: o, row: row, service: service, staged: service + ".gsh"}
}

// newSOAPServer mounts h on an HTTP server on gridNet and returns its base
// URL and a SOAP client that reaches it.
func newSOAPServer(t *testing.T, h http.Handler) (string, *soap.Client) {
	t.Helper()
	ln := gridNet.Listen()
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String(), &soap.Client{HTTP: &http.Client{Transport: overGrid}}
}

// goroutines returns the stacks of the goroutines that have any of frames
// on their stack, by goroutine ID.
func goroutines(frames ...string) map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	owned := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, frame := range frames {
			if strings.Contains(g, frame) {
				id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
				owned[id] = g
				break
			}
		}
	}
	return owned
}

// collectorGoroutines returns the goroutines the collect step runs:
// tentative pollers, and the push path's stream workers (streaming, with
// their heartbeat monitors, or polling) and final-fetch retries. A
// watchdog is a timer, not a goroutine.
func collectorGoroutines() map[string]string {
	return goroutines("core.(*OnServe).pollOutput", "core.(*eventWorker).")
}

// collectorsIdle asserts that, once every invocation is terminal and no
// session is cached, the collect step parks nothing a PollInterval and a
// heartbeat on: watchdogs stopped, pollers and retries returned, stream
// workers retired (a polling one at its next tick, a streaming one at the
// next frame, when it finds no job left).
func (f *fixture) collectorsIdle(t *testing.T) {
	t.Helper()
	time.Sleep(f.cfg.PollInterval + gram.DefaultHeartbeatInterval)
	bubble.Wait()
	if owned := collectorGoroutines(); len(owned) > 0 {
		var stacks []string
		for _, g := range owned {
			stacks = append(stacks, g)
		}
		t.Fatalf("%d collector goroutines still parked:\n%s", len(owned), strings.Join(stacks, "\n\n"))
	}
}

// indexSpans groups one trace's spans by name and span id.
func indexSpans(spans []trace.SpanData) (byName map[string][]trace.SpanData, byID map[string]trace.SpanData) {
	byName = make(map[string][]trace.SpanData)
	byID = make(map[string]trace.SpanData)
	for _, sd := range spans {
		byName[sd.Name] = append(byName[sd.Name], sd)
		byID[sd.SpanID] = sd
	}
	return
}

// assertSingleTree fails unless spans form one tree: a single root,
// every parent link resolving to a retained span, one shared trace id.
func assertSingleTree(t *testing.T, spans []trace.SpanData) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	_, byID := indexSpans(spans)
	roots := 0
	for _, sd := range spans {
		if sd.TraceID != spans[0].TraceID {
			t.Fatalf("span %s/%s left the trace: %s != %s", sd.Service, sd.Name, sd.TraceID, spans[0].TraceID)
		}
		if sd.ParentID == "" {
			roots++
		} else if _, ok := byID[sd.ParentID]; !ok {
			t.Errorf("orphan span %s/%s: parent %s not retained", sd.Service, sd.Name, sd.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want 1", roots)
	}
}

// invocationTree returns inv's spans, indexed, once it has checked that
// they form one tree.
func (f *fixture) invocationTree(t *testing.T, inv *Invocation) (byName map[string][]trace.SpanData, byID map[string]trace.SpanData) {
	t.Helper()
	spans, err := f.ons.InvocationTrace(inv.Ticket)
	must(t, err)
	assertSingleTree(t, spans)
	return indexSpans(spans)
}

// must fails the test on err.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
