package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/cyberaide"
	"repro/internal/gateway"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/uddi"
)

// TestProfileEquivalence holds every production knob to its promise: the
// same behaviour as the paper, only cheaper. One script of user requests
// runs through both doors of five shapes — Paper(), Production(""),
// Production(dir), and a one- and a four-member fleet of production
// appliances — over the fixture's grid. Every shape must show the user
// the same transcript, byte for byte, and no production shape may make
// more grid round trips than the paper.
func TestProfileEquivalence(t *testing.T) {
	bubble.Run(func() {
		shapes := []struct {
			name  string
			fleet int
			knobs func(t *testing.T) appliance.Config
		}{
			{"paper", 0, func(*testing.T) appliance.Config { return appliance.Paper() }},
			{"production", 0, func(*testing.T) appliance.Config { return appliance.Production("") }},
			{"production-on-disk", 0, func(t *testing.T) appliance.Config { return appliance.Production(t.TempDir()) }},
			{"fleet-1", 1, func(*testing.T) appliance.Config { return appliance.Production("") }},
			{"fleet-4", 4, func(*testing.T) appliance.Config { return appliance.Production("") }},
		}
		var paper []string
		var paperTrips int64
		bob := core.UserAuth{MyProxyUser: "bob", Passphrase: "pw"}
		for _, sh := range shapes {
			t.Run(sh.name, func(t *testing.T) {
				f := appliancetest.Boot(t, nil)
				grid := proxyGrid(t, f)
				cfg := sh.knobs(t)
				cfg.Endpoints, cfg.GridDial = grid.endpoints, f.Net.DialContext
				cfg.PollInterval, cfg.InvocationTimeout = 2*time.Second, time.Hour
				s := &script{t: t, f: f, grid: grid, restart: func(string) {}}
				if sh.fleet == 0 {
					img, err := f.Build(func(c *appliance.Config) { *c = cfg })
					if err != nil {
						t.Fatal(err)
					}
					f.Image = img
					f.Reboot(t)
					f.App.OnServe.RegisterUser("bob", bob)
					s.base = f.App.BaseURL
				} else {
					gw, err := gateway.Boot(gateway.Config{Fleet: sh.fleet, Net: f.Net, Trace: f.Trace, Appliance: cfg}, f.Net.Listen())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { gw.Shutdown() })
					gw.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
					gw.RegisterUser("bob", bob)
					s.base = gw.BaseURL
					// The member that holds a service goes down and comes back
					// empty: the fleet gets the service back from its catalog.
					s.restart = func(service string) {
						i := gw.PrimaryFor(service)
						if err := gw.Kill(i); err != nil {
							t.Fatal(err)
						}
						if err := gw.Rejoin(i); err != nil {
							t.Fatal(err)
						}
					}
				}
				s.run()
				trips := grid.trips.Load()
				t.Logf("%d grid round trips", trips)
				if paper == nil {
					paper, paperTrips = s.lines, trips
					return
				}
				for i := range max(len(s.lines), len(paper)) {
					if got, want := line(s.lines, i), line(paper, i); got != want {
						at := 0
						for at < min(len(got), len(want)) && got[at] == want[at] {
							at++
						}
						from := max(at-200, 0)
						t.Errorf("transcript line %d differs from the paper's at byte %d:\n...%.400s\n---- paper:\n...%.400s", i, at, got[from:], want[from:])
					}
				}
				if trips > paperTrips {
					t.Errorf("%d grid round trips, the paper made %d", trips, paperTrips)
				}
			})
		}
	})
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}

// gridProxy stands between the appliance and the grid's HTTP services
// (the gatekeeper and every site's GridFTP server). It counts the
// requests that cross it, answers 503 to the first output fetch after
// failOutput is set, and cuts every output-file fetch's reply short while
// cutOutfile is.
type gridProxy struct {
	endpoints  cyberaide.Endpoints
	trips      atomic.Int64
	failOutput atomic.Bool
	cutOutfile atomic.Bool
}

func proxyGrid(t *testing.T, f *appliancetest.Fixture) *gridProxy {
	p := &gridProxy{}
	out := hop.NewTransport(f.Net.DialContext)
	t.Cleanup(out.CloseIdleConnections)
	front := func(target string) string {
		u, err := url.Parse(target)
		if err != nil {
			t.Fatal(err)
		}
		rp := httputil.NewSingleHostReverseProxy(u)
		rp.Transport, rp.FlushInterval = out, -1
		rp.ErrorLog = log.New(io.Discard, "", 0) // a stream cut at shutdown is no news
		ln := f.Net.Listen()
		srv := netsim.NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.trips.Add(1)
			if r.URL.Path == "/gram/output" && p.failOutput.CompareAndSwap(true, false) {
				http.Error(w, `{"error":"gatekeeper overloaded"}`, http.StatusServiceUnavailable)
				return
			}
			if r.URL.Path == "/gram/outfile" && p.cutOutfile.Load() {
				// A reply's head, and the connection closes before its body.
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n")
					conn.Close()
				}
				return
			}
			rp.ServeHTTP(w, r)
		}))
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return "http://" + ln.Addr().String()
	}
	ep := f.Env.Endpoints()
	ep.GramURL = front(ep.GramURL)
	for site, u := range ep.FTPURLs {
		ep.FTPURLs[site] = front(u)
	}
	p.endpoints = ep
	return p
}

// script is the user's side of TestProfileEquivalence: a publish with
// parameters and a stage-in list, another owner's upload of a name taken
// and the owner's own re-upload without a delete, invocations through the JSON door and
// the SOAP door, a stdout too large to ride in an event frame whose first
// fetch fails, a failing job, a cancel mid-run, an output file written
// and one never written, the client stub, the WSDL, the registry page and
// its listing, and a delete and a re-publish of an edited program under the same name.
// lines is what the user saw, with what varies by run (tickets, hosts,
// times, UDDI keys) written as placeholders.
type script struct {
	t       *testing.T
	f       *appliancetest.Fixture
	grid    *gridProxy
	base    string
	restart func(service string) // brings the service's holder down and back, where that exists
	lines   []string
}

var (
	ticketRE = regexp.MustCompile(`inv-[0-9]+-[A-Za-z0-9]+-[0-9a-f]{12}`)
	hostRE   = regexp.MustCompile(`http://[^/"<>\s]+`)
	timeRE   = regexp.MustCompile(`\d{4}-\d\d-\d\d[T ][0-9:.]+(Z|[+-]\d\d:\d\d)?`)
	keyRE    = regexp.MustCompile(`uddi:[0-9a-f-]+`)
)

// note adds one step's result to the transcript.
func (s *script) note(step string, status int, body string) {
	body = ticketRE.ReplaceAllString(body, "<ticket>")
	body = hostRE.ReplaceAllString(body, "http://<host>")
	body = timeRE.ReplaceAllString(body, "<time>")
	body = keyRE.ReplaceAllString(body, "uddi:<key>")
	s.lines = append(s.lines, fmt.Sprintf("%s: %d %s", step, status, body))
}

// do sends one request to the door and notes the reply.
func (s *script) do(step, method, path, ctype, body string) string {
	r := s.f.Do(s.t, appliancetest.Route{Method: method, Path: s.base + path, Type: ctype, Body: body})
	s.note(step, r.Status, r.Body)
	return r.Body
}

// publish uploads program as file through the form and notes the service
// it published.
func (s *script) publish(file, program string, fields ...string) {
	ctype, form := appliancetest.UploadForm(file, program, fields...)
	r := s.f.Do(s.t, appliancetest.Route{Method: "POST", Path: s.base + "/upload", Type: ctype, Body: form})
	var rec uddi.Record
	json.Unmarshal([]byte(r.Body), &rec)
	s.note("publish "+file, r.Status, rec.Name+" by "+rec.Owner)
}

// invoke starts service through the JSON door and returns the ticket.
func (s *script) invoke(service, args string) string {
	r := s.f.Do(s.t, appliancetest.Route{Method: "POST", Path: s.base + "/api/invoke", Type: "application/json",
		Body: `{"service":"` + service + `","args":{` + args + `}}`})
	var reply struct{ Ticket string }
	json.Unmarshal([]byte(r.Body), &reply)
	s.note("invoke "+service, r.Status, ticketRE.FindString(reply.Ticket))
	return reply.Ticket
}

// call calls op of service through the SOAP door and notes the result,
// shortened to a digest past 200 bytes.
func (s *script) call(service, op string, params ...soap.Param) string {
	c := soap.Client{HTTP: s.f.Web}
	out, err := c.Call(s.base+"/services/"+service, "urn:onserve:"+service, op, params, nil)
	if err != nil {
		s.note("soap "+op+" "+service, 500, err.Error())
		return ""
	}
	s.note("soap "+op+" "+service, 200, digest(out))
	return out
}

func digest(s string) string {
	if len(s) <= 200 {
		return s
	}
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%d bytes, sha256 %s", len(s), hex.EncodeToString(sum[:8]))
}

func (s *script) wait(ticket string) {
	r := s.f.Do(s.t, appliancetest.Route{Method: "GET", Path: s.base + "/api/wait?ticket=" + ticket})
	var reply struct{ State, Output, Message string }
	json.Unmarshal([]byte(r.Body), &reply)
	s.note("wait", r.Status, reply.State+" "+digest(reply.Output)+" "+reply.Message)
}

func (s *script) run() {
	t, f := s.t, s.f
	if err := f.Env.StageEverywhere("/O=Repro/CN=alice", "corpus.txt", []byte("some words\n")); err != nil {
		t.Fatal(err)
	}
	s.publish("greet.gsh", "echo hello ${who}\nwrite result.dat 64\n", "paramName1", "who", "paramType1", "string")
	s.publish("big.gsh", "echo "+strings.Repeat("x", 9000)+"\n")
	s.publish("broken.gsh", "echo before\nfail boom\n")
	s.publish("slow.gsh", "compute 10m\necho never\n")
	s.publish("corpus.gsh", "read corpus.txt\necho read ${n}\n", "paramName1", "n", "paramType1", "int", "stageIn", "corpus.txt")

	// Another owner uploads a name alice holds: refused, and the calls
	// below still run her program.
	ctype, form := appliancetest.UploadForm("greet.gsh", "echo bob was here\n", "user", "bob")
	s.do("another owner uploads the same name", "POST", "/upload", ctype, form)
	ctype, form = appliancetest.UploadForm("greet.gsh", "echo hello again\n")
	s.do("re-upload without delete", "POST", "/upload", ctype, form)

	// A job that runs through the steps below, one per door, until each
	// is cancelled mid-run.
	slowJSON, slowSOAP := s.invoke("SlowService", ""), s.call("SlowService", "execute")

	// Invoke with parameters, through both doors; an output file written,
	// and one never written.
	ticket := s.invoke("GreetService", `"who":"json"`)
	s.wait(ticket)
	s.do("outfile written", "GET", "/api/outfile?ticket="+ticket+"&name=result.dat", "", "")
	s.do("outfile never written", "GET", "/api/outfile?ticket="+ticket+"&name=missing.dat", "", "")
	ticket = s.call("GreetService", "execute", soap.Param{Name: "who", Value: "soap"})
	s.call("GreetService", "wait", soap.Param{Name: "ticket", Value: ticket})
	s.call("GreetService", "outputFile", soap.Param{Name: "ticket", Value: ticket}, soap.Param{Name: "name", Value: "missing.dat"})

	// A stdout no event frame carries, whose first fetch fails.
	s.grid.failOutput.Store(true)
	s.wait(s.invoke("BigService", ""))
	if s.grid.failOutput.Load() {
		t.Error("no output fetch reached the grid for BigService")
	}
	s.call("BigService", "wait", soap.Param{Name: "ticket", Value: s.call("BigService", "execute")})

	// A failing job, through both doors.
	s.wait(s.invoke("BrokenService", ""))
	s.call("BrokenService", "wait", soap.Param{Name: "ticket", Value: s.call("BrokenService", "execute")})

	// Cancel mid-run, through both doors.
	s.do("cancel", "POST", "/api/cancel?ticket="+slowJSON, "", "")
	s.wait(slowJSON)
	s.call("SlowService", "cancel", soap.Param{Name: "ticket", Value: slowSOAP})
	s.call("SlowService", "wait", soap.Param{Name: "ticket", Value: slowSOAP})

	// The stage-in list.
	s.wait(s.invoke("CorpusService", `"n":"3"`))
	s.do("service", "GET", "/api/service?name=CorpusService", "", "")

	// What a client reads before it calls.
	s.do("client stub", "GET", "/api/client?name=GreetService", "", "")
	s.do("wsdl", "GET", "/services/GreetService?wsdl", "", "")
	s.do("registry", "GET", "/registry", "", "")
	s.do("registry listing", "GET", "/api/registry", "", "")

	// Delete, then re-publish an edited program under the same name; the
	// service's holder restarts empty before the next call.
	s.do("delete", "POST", "/api/delete?name=GreetService", "", "")
	s.do("invoke deleted", "POST", "/api/invoke", "application/json", `{"service":"GreetService"}`)
	s.publish("greet.gsh", "echo hi ${who}\n", "paramName1", "who", "paramType1", "string")
	s.restart("GreetService")
	s.call("GreetService", "wait", soap.Param{Name: "ticket", Value: s.call("GreetService", "execute", soap.Param{Name: "who", Value: "again"})})
	s.wait(s.invoke("GreetService", `"who":"twice"`))
}
