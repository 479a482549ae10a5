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
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Fixture is a booted appliance over a grid where alice holds a
// credential (passphrase "pw") and is registered with the appliance.
type Fixture struct {
	Net   *netsim.Net
	Env   *gridenv.Env
	Trace *trace.Collector // the grid's spans, and the appliance's unless its Config drops it
	Image *appliance.Image
	App   *appliance.Appliance
	// Web is the user's client on Net. It shows a redirect instead of
	// following it: the mux answers a path with an empty segment that way.
	Web *http.Client
	cfg appliance.Config // what Build starts from
}

// Boot starts the grid (sites, or siteA with two nodes and siteB with one)
// and an appliance whose Config mutate may edit: it arrives wired to the
// grid, traced into the fixture's collector, polling every 2 s under a
// one-hour watchdog. Call it in a bubble. At cleanup every stored row is
// checked against its digest (blobtest.VerifyStored) and both shut down.
func Boot(t testing.TB, mutate func(*appliance.Config), sites ...gridsim.SiteConfig) *Fixture {
	t.Helper()
	if sites == nil {
		sites = []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}, {Name: "siteB", Nodes: 1, CoresPerNode: 4}}
	}
	f := &Fixture{Net: netsim.NewNet(), Trace: trace.NewCollector(0, 0)}
	env, err := gridenv.Start(gridenv.Options{Sites: sites, Trace: f.Trace, Net: f.Net})
	if err != nil {
		t.Fatal(err)
	}
	f.Env = env
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	f.cfg = appliance.Config{
		Endpoints:         env.Endpoints(),
		GridDial:          f.Net.DialContext,
		Cost:              metrics.DefaultCost(),
		PollInterval:      2 * time.Second,
		InvocationTimeout: time.Hour,
		Trace:             f.Trace,
	}
	if f.Image, err = f.Build(mutate); err != nil {
		t.Fatal(err)
	}
	user := hop.NewTransport(f.Net.DialContext)
	f.Web = &http.Client{Transport: user, CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	f.Reboot(t)
	t.Cleanup(func() {
		blobtest.VerifyStored(t, f.App.DB)
		f.App.Shutdown()
		user.CloseIdleConnections()
	})
	return f
}

// Build builds an image from the configuration Boot starts from, the
// fixture's grid wiring and cadence, with mutate applied.
func (f *Fixture) Build(mutate func(*appliance.Config)) (*appliance.Image, error) {
	cfg := f.cfg
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
		if err := f.App.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	app, err := f.Image.Boot(f.Net.Listen())
	if err != nil {
		t.Fatal(err)
	}
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	f.App = app
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
func (f *Fixture) Upload(t testing.TB, file, program string, fields ...string) string {
	t.Helper()
	ctype, body := UploadForm(file, program, fields...)
	reply := f.Do(t, Route{Method: http.MethodPost, Path: "/upload", Type: ctype, Body: body})
	if reply.Status != http.StatusOK {
		t.Fatalf("upload of %s: %d %s", file, reply.Status, reply.Body)
	}
	return reply.Body
}

// Route is one row of a door's route table: a request, and what the
// appliance must answer to it.
type Route struct {
	Method     string
	Path       string // on the appliance, or a whole URL
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
func (f *Fixture) Do(t testing.TB, r Route) Reply {
	t.Helper()
	url := r.Path
	if !strings.HasPrefix(url, "http://") {
		url = f.App.BaseURL + url
	}
	req, err := http.NewRequest(r.Method, url, strings.NewReader(r.Body))
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != "" {
		req.Header.Set("Content-Type", r.Type)
	}
	if r.Key != "" {
		req.Header.Set(tenant.KeyHeader, r.Key)
	}
	resp, err := f.Web.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	reply := Reply{Status: resp.StatusCode, Header: resp.Header, Body: string(body)}
	if loc := resp.Header.Get("Location"); loc != "" {
		reply.Body = loc
	}
	return reply
}

// Serve sends each route's request in turn, holds the reply to the row's
// verdict, and returns the replies.
func (f *Fixture) Serve(t testing.TB, routes ...Route) []Reply {
	t.Helper()
	replies := make([]Reply, len(routes))
	for i, r := range routes {
		reply := f.Do(t, r)
		if reply.Status != r.Status || !strings.Contains(reply.Body, r.Want) {
			t.Errorf("%s %s: %d %.300q, want %d with %q", r.Method, r.Path, reply.Status, reply.Body, r.Status, r.Want)
		} else if r.Check != nil {
			r.Check(t, reply)
		}
		replies[i] = reply
	}
	return replies
}
