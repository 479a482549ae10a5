package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/gsh"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/wsclient"
)

// workload is one traffic mix. Every workload is a closed loop of nproc
// callers: a caller sends its next op only after the previous one
// returned, so a slower system is offered less load. Each op runs the
// program `echo ${n}` with an n no other op of the run uses, and the
// op counts as correct only when the output it collects is that n.
type workload struct {
	name string
	why  string
	// profile names the appliance configuration (profiles.go).
	profile string
	// diskDB puts the blob database on disk (publish_cycle: the write
	// path is the point).
	diskDB bool
	// fleet > 0 fronts that many appliances with the gateway.
	fleet int
	// tenancy turns the control plane on: one API key per owner, no
	// quotas or rate limits, so nothing is shed.
	tenancy bool
	// owners × services executables of serviceBytes each are published
	// during set-up. publish_cycle publishes none: its op does.
	owners, services int
	serviceBytes     int
	// soapDoor drives the generated SOAP service through a wsclient
	// proxy (execute, wait); otherwise the JSON API is used
	// (/api/invoke, /api/wait).
	soapDoor bool
	// cyclePool > 0 makes one op a whole publish cycle (upload, invoke,
	// wait, delete) under a name drawn from a pool of that many per
	// caller. The pool is bounded because unique names grew the heap to
	// 818 MB in 10 s when the issue was sized; finding what holds on to
	// them is ROADMAP item 5's job, not the benchmark's.
	cyclePool int
}

var workloads = []workload{
	{
		name:    "hot_small",
		why:     "one 1 KB service, prod profile, SOAP door: every cache hits, so per-invocation control cost (SOAP, signed submit, event collector, output fetch) is all there is",
		profile: "prod", owners: 1, services: 1, serviceBytes: 1 << 10, soapDoor: true,
	},
	{
		name:    "cold_large",
		why:     "one 1 MB service, paper profile, SOAP door: every invocation re-inflates the blob, logs on and re-stages 1 MB (the paper's Fig. 7 shape), so the data plane does the work",
		profile: "paper", owners: 1, services: 1, serviceBytes: 1 << 20, soapDoor: true,
	},
	{
		name:    "publish_cycle",
		why:     "upload a fresh 256 KB executable, invoke, wait, delete, on an on-disk database: the write side of the layers the other workloads only read",
		profile: "prod", diskDB: true, owners: 1, serviceBytes: 256 << 10, cyclePool: 32,
	},
	{
		name:    "fleet_tenants",
		why:     "gateway over 4 appliances with tenancy on, 8 owners x 4 services of 64 KB, JSON door: adds route decode, ring, proxy hop and admission over a many-owner working set, and bypasses SOAP",
		profile: "prod", fleet: 4, tenancy: true, owners: 8, services: 4, serviceBytes: 64 << 10,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) ownerName(i int) string { return fmt.Sprintf("owner%d", i) }
func (w *workload) ownerKey(i int) string  { return fmt.Sprintf("bench-key-%d", i) }

// sutConfig derives the stack the workload runs against; the grid's
// endpoints are filled in once the grid is up.
func (w *workload) sutConfig(dbDir string, traced bool) sutConfig {
	s := sutConfig{Profile: w.profile, Fleet: w.fleet, Trace: traced}
	if w.diskDB {
		s.DBDir = dbDir
	}
	for i := 0; i < w.owners; i++ {
		s.Users = append(s.Users, userSpec{Name: w.ownerName(i), Pass: "pw"})
	}
	if w.tenancy {
		cfg := &tenant.Config{}
		for i := 0; i < w.owners; i++ {
			cfg.Owners = append(cfg.Owners, tenant.OwnerConfig{Name: w.ownerName(i)})
			cfg.Keys = append(cfg.Keys, tenant.KeyConfig{Key: w.ownerKey(i), Owner: w.ownerName(i)})
		}
		s.Tenancy = cfg
	}
	return s
}

// stampedTransport adds the caller's API key and trace context to every
// request. wsclient offers no way to set HTTP headers, so the SOAP door
// can only be stamped here. A caller issues one request at a time, so
// the fields need no lock.
type stampedTransport struct {
	next  http.RoundTripper
	key   string
	trace string
}

func (t *stampedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.key == "" && t.trace == "" {
		return t.next.RoundTrip(req)
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify its argument
	if t.key != "" {
		req.Header.Set(tenant.KeyHeader, t.key)
	}
	if t.trace != "" {
		req.Header.Set(trace.Header, t.trace)
	}
	return t.next.RoundTrip(req)
}

// target is one published service a caller may invoke.
type target struct {
	service string
	owner   string
	key     string
	proxy   *wsclient.Proxy // SOAP door only
}

// opRec is one completed op. Times are nanoseconds since the load
// began; parts a workload does not have stay zero.
type opRec struct {
	start, end                 int64
	execute, wait, upload, del int64
	traceID                    string // traced runs only
	ok                         bool
}

// caller is one closed-loop client. Nothing in it is shared.
type caller struct {
	id      int
	w       *workload
	base    string
	rng     *rand.Rand
	seq     int
	st      *stampedTransport
	hc      *http.Client
	tr      *trace.Tracer // nil in untraced runs: every span is a no-op
	targets []target
	body    []byte       // publish_cycle: the executable being uploaded
	form    bytes.Buffer // publish_cycle: the multipart request body
}

func newCaller(id int, w *workload, base string, seed int64, rt http.RoundTripper) *caller {
	st := &stampedTransport{next: rt}
	return &caller{
		id: id, w: w, base: base,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(id))),
		st:  st, hc: &http.Client{Transport: st},
	}
}

// nextN returns an argument no other op of this run uses.
func (c *caller) nextN() string {
	c.seq++
	return strconv.Itoa(c.id*100_000_000 + c.seq)
}

const programHead = "echo ${n}\n"

// program renders the executable of a published service: the echo, a
// seed-derived comment so two seeds never publish the same bytes, and
// gsh.Pad's incompressible filler up to size.
func program(rng *rand.Rand, size int) []byte {
	head := fmt.Sprintf("%s# seed %016x%016x\n", programHead, rng.Uint64(), rng.Uint64())
	return gsh.Pad([]byte(head), size)
}

// freshProgram fills buf with an executable whose every byte past the
// echo is drawn from rng, so no two publish_cycle uploads share a chunk
// or a gzip stream. It is gsh.Pad's format at ten characters per draw.
func freshProgram(buf []byte, rng *rand.Rand, size int) []byte {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	buf = append(buf[:0], programHead...)
	for len(buf) < size {
		buf = append(buf, '#')
		for i := 0; i < 6; i++ {
			v := rng.Uint64()
			for j := 0; j < 10; j++ {
				buf = append(buf, alphabet[v&63])
				v >>= 6
			}
		}
		buf = append(buf, '\n')
	}
	return buf
}

// span times one leg of an op under the op's root span and stamps the
// leg's context onto the requests it sends.
func (c *caller) span(name string, root *trace.Span, d *int64, f func() error) error {
	sp := c.tr.StartSpan(name, root.Context())
	c.st.trace = sp.Context().String()
	t := time.Now()
	err := f()
	*d = int64(time.Since(t))
	if err != nil {
		sp.Error(err.Error())
	}
	sp.End()
	c.st.trace = ""
	return err
}

// upload posts the portal's upload form and returns the generated
// service's name.
func (c *caller) upload(fileName, owner string, content []byte) (string, error) {
	c.form.Reset()
	mw := multipart.NewWriter(&c.form)
	fw, err := mw.CreateFormFile("file", fileName)
	if err != nil {
		return "", err
	}
	// The writer's sink is a bytes.Buffer, so none of these can fail.
	fw.Write(content)
	mw.WriteField("user", owner)
	mw.WriteField("description", "benchmark service")
	mw.WriteField("paramName1", "n")
	mw.WriteField("paramType1", "string")
	if err := mw.Close(); err != nil {
		return "", err
	}
	var rec struct {
		Name string `json:"name"`
	}
	if err := c.call(http.MethodPost, "/upload", mw.FormDataContentType(), c.form.Bytes(), &rec); err != nil {
		return "", err
	}
	if rec.Name == "" {
		return "", fmt.Errorf("upload %s: no service name in reply", fileName)
	}
	return rec.Name, nil
}

// call sends one JSON-door request and decodes the 200 reply into out.
func (c *caller) call(method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: http %d: %s", method, path, resp.StatusCode, reply)
	}
	return json.Unmarshal(reply, out)
}

// invoke runs execute-then-wait through the workload's front door and
// checks the collected output against n.
func (c *caller) invoke(t *target, n string, root *trace.Span, rec *opRec) error {
	var out string
	if c.w.soapDoor {
		var ticket string
		err := c.span("client.execute", root, &rec.execute, func() (err error) {
			ticket, err = t.proxy.Invoke("execute", map[string]string{"n": n})
			return err
		})
		if err != nil {
			return err
		}
		err = c.span("client.wait", root, &rec.wait, func() (err error) {
			out, err = t.proxy.Invoke("wait", map[string]string{"ticket": ticket})
			return err
		})
		if err != nil {
			return err
		}
	} else {
		var inv struct {
			Ticket string `json:"ticket"`
		}
		err := c.span("client.execute", root, &rec.execute, func() error {
			body := `{"service":"` + t.service + `","args":{"n":"` + n + `"}}`
			return c.call(http.MethodPost, "/api/invoke", "application/json", []byte(body), &inv)
		})
		if err != nil {
			return err
		}
		var done struct {
			State  string `json:"state"`
			Output string `json:"output"`
		}
		err = c.span("client.wait", root, &rec.wait, func() error {
			return c.call(http.MethodGet, "/api/wait?ticket="+url.QueryEscape(inv.Ticket), "", nil, &done)
		})
		if err != nil {
			return err
		}
		if done.State != "DONE" {
			return fmt.Errorf("invocation %s ended %s", inv.Ticket, done.State)
		}
		out = done.Output
	}
	if out != n+"\n" {
		return fmt.Errorf("service %s: output %q, want %q", t.service, out, n+"\n")
	}
	return nil
}

// op runs one operation of the workload and reports it. since is the
// load's time origin.
func (c *caller) op(since time.Time) (opRec, error) {
	if c.w.cyclePool > 0 {
		// Drawing 256 KB of noise is the generator's work, not the op's.
		c.body = freshProgram(c.body, c.rng, c.w.serviceBytes)
	}
	var rec opRec
	rec.start = int64(time.Since(since))
	root := c.tr.StartRoot("client.op")
	if s := root.Context().String(); s != "" {
		rec.traceID = s[:32]
	}
	err := c.opUnder(root, &rec)
	if err != nil {
		root.Error(err.Error())
	}
	root.End()
	rec.end = int64(time.Since(since))
	rec.ok = err == nil
	return rec, err
}

func (c *caller) opUnder(root *trace.Span, rec *opRec) error {
	n := c.nextN()
	if c.w.cyclePool == 0 {
		t := &c.targets[c.rng.Intn(len(c.targets))]
		c.st.key = t.key
		return c.invoke(t, n, root, rec)
	}
	// One publish cycle under a pooled name. The delete at the end frees
	// the name, so a caller never finds its own draw taken.
	fileName := fmt.Sprintf("cycle-c%d-%d.gsh", c.id, c.rng.Intn(c.w.cyclePool))
	owner := c.w.ownerName(0)
	t := target{owner: owner}
	err := c.span("client.upload", root, &rec.upload, func() (err error) {
		t.service, err = c.upload(fileName, owner, c.body)
		return err
	})
	if err != nil {
		return err
	}
	if err := c.invoke(&t, n, root, rec); err != nil {
		return err
	}
	return c.span("client.delete", root, &rec.del, func() error {
		var gone struct {
			Deleted string `json:"deleted"`
		}
		return c.call(http.MethodPost, "/api/delete?name="+url.QueryEscape(t.service), "", nil, &gone)
	})
}

// publish uploads the workload's services through caller c and returns
// them. Programs are derived from seed alone.
func (c *caller) publish(seed int64) ([]target, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []target
	for o := 0; o < c.w.owners; o++ {
		for s := 0; s < c.w.services; s++ {
			t := target{owner: c.w.ownerName(o)}
			if c.w.tenancy {
				t.key = c.w.ownerKey(o)
			}
			c.st.key = t.key
			name, err := c.upload(fmt.Sprintf("bench-o%d-s%d.gsh", o, s), t.owner, program(rng, c.w.serviceBytes))
			if err != nil {
				return nil, fmt.Errorf("publish: %w", err)
			}
			t.service = name
			out = append(out, t)
		}
	}
	return out, nil
}

// adopt gives the caller its own view of the published services; on the
// SOAP door that is one wsimport-style proxy per service.
func (c *caller) adopt(published []target) error {
	c.targets = append([]target(nil), published...)
	if !c.w.soapDoor {
		return nil
	}
	for i := range c.targets {
		p, err := wsclient.ImportURL(c.base+"/services/"+c.targets[i].service, c.hc)
		if err != nil {
			return fmt.Errorf("import %s: %w", c.targets[i].service, err)
		}
		c.targets[i].proxy = p
	}
	return nil
}
