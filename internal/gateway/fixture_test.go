package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/hop"
	"repro/internal/hop/hoptest"
	"repro/internal/portal"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// TestMain runs the package's tests under GOEXPERIMENT=synctest, where
// those that boot a fleet run it in a bubble.
func TestMain(m *testing.M) { bubble.Main(m) }

// row is appliancetest's Route: a request, and the verdict on its reply.
type row = appliancetest.Route

// fleet is a gateway Boot built over appliancetest's grid, whose network
// and collector it uses: Do and Serve send rows to the front door, and
// every hop to a member crosses faults, the gateway→member fault table.
type fleet struct {
	*Gateway
	*appliancetest.Grid
	faults *hoptest.Faults
	front  portal.Client // alice's client of the front door
	dials  atomic.Int64  // connections the gateway dialled to members
	// tenancy is what each member boots with, at Boot and at each Rejoin:
	// set it before a Rejoin to boot that member with other keys.
	tenancy *tenant.Config
}

// newFleet boots a gateway of n members whose Config mutate may edit, with
// alice registered. Call it in a bubble; the fleet shuts down at cleanup.
func newFleet(t *testing.T, n int, mutate func(*Config)) *fleet {
	t.Helper()
	f := &fleet{Grid: appliancetest.StartGrid(t)}
	cfg := Config{Fleet: n, Appliance: f.Config, HalfOpenAfter: 20 * time.Minute, Net: f.Net, Trace: f.Trace}
	if mutate != nil {
		mutate(&cfg)
	}
	f.tenancy = cfg.Appliance.Tenancy
	cfg.PerShard = func(_ int, c appliance.Config) appliance.Config { c.Tenancy = f.tenancy; return c }
	gw, err := Boot(cfg, f.Net.Listen())
	must(t, err)
	t.Cleanup(func() { gw.Shutdown() })
	f.faults = &hoptest.Faults{Out: hop.NewTransport(func(ctx context.Context, network, addr string) (net.Conn, error) {
		f.dials.Add(1)
		return f.Net.DialContext(ctx, network, addr)
	})}
	t.Cleanup(f.faults.CloseIdleConnections)
	gw.rt = f.faults
	gw.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	f.Gateway, f.Base = gw, gw.BaseURL
	f.front = portal.Client{Base: gw.BaseURL, HTTP: f.Web}
	return f
}

// statsDoc is the front door's /api/stats document.
type statsDoc struct {
	Gateway Stats `json:"gateway"`
	Fleet   []struct {
		State string          `json:"state"`
		Stats json.RawMessage `json:"stats"`
	} `json:"fleet"`
	Tenant *tenant.Stats `json:"tenant"`
}

// door is a client of member i's own door, past the gateway.
func (f *fleet) door(i int) portal.Client {
	return portal.Client{Base: f.Fleet()[i].BaseURL, HTTP: f.Web, Key: f.front.Key}
}

// publish uploads program as alice's file through c and returns its
// service's name.
func publish(t *testing.T, c portal.Client, file, program string) string {
	t.Helper()
	rec, err := c.Upload(portal.UploadRequest{FileName: file, Content: []byte(program), User: "alice"})
	must(t, err)
	return rec.Name
}

// publishAll publishes program through the front door as alice's files
// <stem>0.gsh … and returns their services' names.
func (f *fleet) publishAll(t *testing.T, stem string, n int, program string) (services []string) {
	for i := range n {
		services = append(services, publish(t, f.front, fmt.Sprintf("%s%d.gsh", stem, i), program))
	}
	return services
}

// run invokes service through c with argument x, where set, and waits
// for its end. An error says which step failed, so a caller can re-issue.
func run(c portal.Client, service, x string) (ticket, output string, err error) {
	var args map[string]string
	if x != "" {
		args = map[string]string{"x": x}
	}
	inv, status, err := c.Invoke(service, args)
	if err != nil || status != http.StatusOK {
		return "", "", fmt.Errorf("invoke: status %d: %v", status, err)
	}
	done, err := c.Wait(inv.Ticket)
	if err == nil && done.State != "DONE" {
		err = fmt.Errorf("wait: state %s", done.State)
	}
	return inv.Ticket, done.Output, err
}

// invoke runs service through the front door with x, up to tries times (a
// first attempt after a kill may die on a pooled connection, ambiguously:
// the caller's to re-issue), and wants it to print want. It returns the ticket.
func (f *fleet) invoke(t *testing.T, tries int, service, x, want string) (ticket string) {
	t.Helper()
	ticket, out, err := run(f.front, service, x)
	for try := 1; err != nil && try < tries; try++ {
		ticket, out, err = run(f.front, service, x)
	}
	if err != nil || out != want {
		t.Fatalf("%s(x=%s): %q, %v; want %q", service, x, out, err, want)
	}
	return ticket
}

// get is a row that reads path and wants status with want in the body.
func get(path string, status int, want string) row {
	return row{Method: http.MethodGet, Path: path, Status: status, Want: want}
}

// read is a row that reads path, wants 200, and holds the body to check.
func read(path string, check func(t testing.TB, body string)) row {
	return row{Method: http.MethodGet, Path: path, Status: http.StatusOK,
		Check: func(t testing.TB, reply appliancetest.Reply) { check(t, reply.Body) }}
}

// at is a rule's When for the requests to m, while on holds where set.
func at(m *member, on *atomic.Bool) func(*http.Request) bool {
	base, _ := m.snapshot()
	host := strings.TrimPrefix(base, "http://")
	return func(req *http.Request) bool { return req.URL.Host == host && (on == nil || on.Load()) }
}

// holders counts the members that hold service.
func (f *fleet) holders(t *testing.T, service string) (n int) {
	t.Helper()
	for _, app := range f.Fleet() {
		infos, err := app.OnServe.Services()
		must(t, err)
		if slices.ContainsFunc(infos, func(info core.ExecutableInfo) bool { return info.ServiceName == service }) {
			n++
		}
	}
	return n
}

// must fails the test on err.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// countsOf reads m's counters.
func countsOf(m *member) UpstreamStats { return m.stats(time.Time{}) }

// up is m's block of the gateway's stats.
func (f *fleet) up(m *member) UpstreamStats { return f.GatewayStats().Upstreams[m.idx] }

// code serves r at the front door, in process, and returns its status.
func (f *fleet) code(r *http.Request) int {
	w := httptest.NewRecorder()
	f.ServeHTTP(w, r)
	return w.Code
}

// down refuses every dial to m while the switch it returns is on.
func (f *fleet) down(m *member) *atomic.Bool {
	on := new(atomic.Bool)
	f.faults.Add(&hoptest.Rule{When: at(m, on), Do: hoptest.Refuse})
	return on
}

// eject turns down on and sends serve FailThreshold times, which must
// eject m; it returns m's stats then.
func (f *fleet) eject(t *testing.T, m *member, down *atomic.Bool, serve func()) UpstreamStats {
	t.Helper()
	down.Store(true)
	for range f.cfg.FailThreshold {
		serve()
	}
	up := f.up(m)
	if up.State != "ejected" {
		t.Fatalf("after %d refused dials: %+v", f.cfg.FailThreshold, up)
	}
	return up
}

// spans are the gateway's spans of the trace id.
func (f *fleet) spans(id string) (spans []trace.SpanData) {
	for _, sd := range f.Trace.Trace(id) {
		if sd.Service == "gateway" {
			spans = append(spans, sd)
		}
	}
	return spans
}

// lowerMaxBody shrinks the body bound for one test, so "one byte too
// many" does not take a quarter of a gigabyte to say.
func lowerMaxBody(t *testing.T, limit int64) {
	old := maxBody
	maxBody = limit
	t.Cleanup(func() { maxBody = old })
}

// ejectPrimary sends reads of service through the gateway until its
// primary, killed, is ejected: nothing but requests finds a dead member.
// A successor serves each read.
func (f *fleet) ejectPrimary(t *testing.T, service string) {
	t.Helper()
	for i := 0; f.GatewayStats().Ejections == 0; i++ {
		if i == 20 {
			t.Fatal("the killed shard was never ejected")
		}
		f.Do(t, get("/api/service?name="+service, 0, ""))
	}
}

// bounce kills service's primary, has requests eject it, and rejoins it.
func (f *fleet) bounce(t *testing.T, service string) {
	t.Helper()
	victim := f.PrimaryFor(service)
	must(t, f.Kill(victim))
	f.ejectPrimary(t, service)
	must(t, f.Rejoin(victim))
}
