// Package appliancetest is test support for the appliance's two front
// doors: one simulated grid and one appliance booted from an image over
// it, on one in-process network, and a user on that network who sends
// requests and checks the answers against a route table.
package appliancetest

import (
	"bytes"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/blobdb/blobtest"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Grid is a simulated grid on an in-process network, where alice holds a
// credential (passphrase "pw"), and the appliance configuration wired to
// it: what a fixture boots its appliance, or a gateway its members, over.
type Grid struct {
	Net   *netsim.Net
	Env   *gridenv.Env
	Trace *trace.Collector // the grid's spans, and the appliances' unless a Config drops it
	// Config reaches the grid over Net, traces into Trace and polls every
	// 2 s under a one-hour watchdog.
	Config appliance.Config
	// Web is the user's client on Net. It shows a redirect instead of
	// following it: the mux answers a path with an empty segment that way.
	Web *http.Client
	// Base is where Do sends a Route whose Path is no whole URL.
	Base string
}

// StartGrid starts the grid (sites, or siteA with two nodes and siteB with
// one) and stops it at cleanup. Call it in a bubble.
func StartGrid(t testing.TB, sites ...gridsim.SiteConfig) *Grid {
	t.Helper()
	if sites == nil {
		sites = []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}, {Name: "siteB", Nodes: 1, CoresPerNode: 4}}
	}
	g := &Grid{Net: netsim.NewNet(), Trace: trace.NewCollector(0, 0)}
	env, err := gridenv.Start(gridenv.Options{Sites: sites, Trace: g.Trace, Net: g.Net})
	must(t, err)
	g.Env = env
	t.Cleanup(env.Close)
	_, err = env.AddUser("alice", "pw", 0)
	must(t, err)
	g.Config = appliance.Config{
		Endpoints:         env.Endpoints(),
		GridDial:          g.Net.DialContext,
		PollInterval:      2 * time.Second,
		InvocationTimeout: time.Hour,
		Trace:             g.Trace,
	}
	user := hop.NewTransport(g.Net.DialContext)
	g.Web = &http.Client{Transport: user, CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	t.Cleanup(user.CloseIdleConnections)
	return g
}

// Fixture is a booted appliance over a Grid, alice registered with it.
type Fixture struct {
	*Grid
	Image *appliance.Image
	App   *appliance.Appliance
}

// Boot starts a Grid and an appliance whose Config mutate may edit. Call
// it in a bubble. At cleanup every stored row is checked against its
// digest (blobtest.VerifyStored) and both shut down.
func Boot(t testing.TB, mutate func(*appliance.Config), sites ...gridsim.SiteConfig) *Fixture {
	t.Helper()
	f := &Fixture{Grid: StartGrid(t, sites...)}
	var err error
	f.Image, err = f.Build(mutate)
	must(t, err)
	f.Reboot(t)
	t.Cleanup(func() {
		blobtest.VerifyStored(t, f.App.DB)
		f.App.Shutdown()
	})
	return f
}

// Build builds an image from the grid's Config with mutate applied.
func (g *Grid) Build(mutate func(*appliance.Config)) (*appliance.Image, error) {
	cfg := g.Config
	if mutate != nil {
		mutate(&cfg)
	}
	return appliance.BuildImage(cfg)
}

// Reboot shuts the appliance down, if one runs, and boots the fixture's
// image again on a fresh listener, with alice registered: the database
// persists across it when the image has a DBDir.
func (f *Fixture) Reboot(t testing.TB) {
	t.Helper()
	if f.App != nil {
		must(t, f.App.Shutdown())
	}
	app, err := f.Image.Boot(f.Net.Listen())
	must(t, err)
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	f.App, f.Base = app, app.BaseURL
}

// Part is one part of an upload form: a text field, or a file when File
// names one.
type Part struct{ Name, File, Value string }

// Form encodes parts, in order, as a multipart upload form.
func Form(parts ...Part) (contentType, body string) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		if p.File != "" {
			fw, _ := mw.CreateFormFile(p.Name, p.File)
			io.WriteString(fw, p.Value)
		} else {
			mw.WriteField(p.Name, p.Value)
		}
	}
	mw.Close()
	return mw.FormDataContentType(), buf.String()
}

// UploadForm is the form that publishes program as file: the file part,
// then fields as name, value pairs, with user alice unless they name one.
func UploadForm(file, program string, fields ...string) (contentType, body string) {
	parts := []Part{{"file", file, program}}
	user := true
	for i := 0; i+1 < len(fields); i += 2 {
		parts = append(parts, Part{Name: fields[i], Value: fields[i+1]})
		user = user && fields[i] != "user"
	}
	if user {
		parts = append(parts, Part{Name: "user", Value: "alice"})
	}
	return Form(parts...)
}

// Upload publishes program as file through the upload form (UploadForm)
// and returns the reply; it fails the test unless the form is accepted.
func (g *Grid) Upload(t testing.TB, file, program string, fields ...string) string {
	t.Helper()
	ctype, body := UploadForm(file, program, fields...)
	reply := g.Do(t, Route{Method: http.MethodPost, Path: "/upload", Type: ctype, Body: body})
	if reply.Status != http.StatusOK {
		t.Fatalf("upload of %s: %d %s", file, reply.Status, reply.Body)
	}
	return reply.Body
}

// Route is one row of a door's route table: a request, and what the
// appliance must answer to it.
type Route struct {
	Method     string
	Path       string // on Base, or a whole URL
	Type, Body string // the request's Content-Type, where set, and body
	Key        string // the X-Grid-Key header, where set
	Status     int
	Want       string // a part of the reply's body, where set
	// Check holds the rest of the verdict, where set.
	Check func(t testing.TB, reply Reply)
}

// Reply is the appliance's answer to a Route's request. A redirect's Body
// is where it points.
type Reply struct {
	Status int
	Header http.Header
	Body   string
}

// Do sends r's request from the user's client and returns the reply.
func (g *Grid) Do(t testing.TB, r Route) Reply {
	t.Helper()
	url := r.Path
	if !strings.HasPrefix(url, "http://") {
		url = g.Base + url
	}
	req, err := http.NewRequest(r.Method, url, strings.NewReader(r.Body))
	must(t, err)
	if r.Type != "" {
		req.Header.Set("Content-Type", r.Type)
	}
	if r.Key != "" {
		req.Header.Set(tenant.KeyHeader, r.Key)
	}
	resp, err := g.Web.Do(req)
	must(t, err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	must(t, err)
	reply := Reply{Status: resp.StatusCode, Header: resp.Header, Body: string(body)}
	if loc := resp.Header.Get("Location"); loc != "" {
		reply.Body = loc
	}
	return reply
}

// Serve sends each route's request in turn, holds the reply to the row's
// verdict, and returns the replies.
func (g *Grid) Serve(t testing.TB, routes ...Route) []Reply {
	t.Helper()
	replies := make([]Reply, len(routes))
	for i, r := range routes {
		reply := g.Do(t, r)
		if reply.Status != r.Status || !strings.Contains(reply.Body, r.Want) {
			t.Errorf("%s %s: %d %.300q, want %d with %q", r.Method, r.Path, reply.Status, reply.Body, r.Status, r.Want)
		} else if r.Check != nil {
			r.Check(t, reply)
		}
		replies[i] = reply
	}
	return replies
}

// must fails the test on err.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
