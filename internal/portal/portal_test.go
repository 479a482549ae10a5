package portal_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/portal"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

// TestMain runs the package's tests under GOEXPERIMENT=synctest, where
// those that build a simulated grid run it in a bubble.
func TestMain(m *testing.M) { bubble.Main(m) }

const jsonType = "application/json"

// door boots an appliance on which alice published FlowService through
// the upload form and ran it to its end through the JSON door, with x=5:
// it printed "flow=5" and wrote artifact-5.bin. It returns the ticket.
func door(t *testing.T) (*appliancetest.Fixture, string) {
	t.Helper()
	f := appliancetest.Boot(t, nil)
	f.Upload(t, "flow.gsh", "compute 500ms\necho flow=${x}\nwrite artifact-${x}.bin 96\n",
		"description", "test upload", "paramName1", "x", "paramType1", "int")
	var inv portal.InvokeReply
	f.Serve(t, appliancetest.Route{Method: "POST", Path: "/api/invoke", Type: jsonType, Body: `{"service":"FlowService","args":{"x":"5"}}`,
		Status: http.StatusOK, Check: func(t testing.TB, r appliancetest.Reply) {
			if json.Unmarshal([]byte(r.Body), &inv); inv.Ticket == "" || inv.JobID == "" || inv.Site == "" {
				t.Fatalf("invoke reply %s", r.Body)
			}
		}})
	f.Serve(t, appliancetest.Route{Method: "GET", Path: "/api/wait?ticket=" + inv.Ticket, Status: http.StatusOK, Want: `"state":"DONE"`})
	return f, inv.Ticket
}

// decode reads a reply's JSON body into v.
func decode(t testing.TB, r appliancetest.Reply, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(r.Body), v); err != nil {
		t.Fatalf("%v: %.300q", err, r.Body)
	}
}

// routes is the door's route table: for each test it names, the requests
// the test sends, in order, to the appliance door booted, and what each
// must answer.
func routes(f *appliancetest.Fixture, ticket string) map[string][]appliancetest.Route {
	get := func(path string, status int, want string) appliancetest.Route {
		return appliancetest.Route{Method: "GET", Path: path, Status: status, Want: want}
	}
	post := func(path string, status int) appliancetest.Route {
		return appliancetest.Route{Method: "POST", Path: path, Status: status}
	}
	// upload posts an upload form and checks what was published.
	upload := func(status int, check func(t testing.TB, info *core.ExecutableInfo), parts ...appliancetest.Part) appliancetest.Route {
		ctype, body := appliancetest.Form(append(parts, appliancetest.Part{Name: "user", Value: "alice"})...)
		r := appliancetest.Route{Method: "POST", Path: "/upload", Type: ctype, Body: body, Status: status}
		if check != nil {
			r.Check = func(t testing.TB, reply appliancetest.Reply) {
				var rec uddi.Record
				decode(t, reply, &rec)
				info, err := f.App.OnServe.ServiceInfo(rec.Name)
				if err != nil {
					t.Fatal(err)
				}
				check(t, info)
			}
		}
		return r
	}
	file := func(name, program string) appliancetest.Part {
		return appliancetest.Part{Name: "file", File: name, Value: program}
	}
	field := func(name, value string) appliancetest.Part { return appliancetest.Part{Name: name, Value: value} }
	wantState := func(state, output string) func(testing.TB, appliancetest.Reply) {
		return func(t testing.TB, r appliancetest.Reply) {
			var doc map[string]string
			if decode(t, r, &doc); doc["state"] != state || output != "" && doc["output"] != output {
				t.Errorf("reply %v, want state %s and output %q", doc, state, output)
			}
		}
	}
	traceDoc := func(t testing.TB, r appliancetest.Reply) {
		var doc struct {
			Ticket string           `json:"ticket"`
			Spans  []trace.SpanData `json:"spans"`
		}
		if decode(t, r, &doc); doc.Ticket != ticket || len(doc.Spans) == 0 || doc.Spans[0].Name != "invoke" {
			t.Errorf("ticket %q, %d spans: want %s's, the invoke root first", doc.Ticket, len(doc.Spans), ticket)
		}
	}
	unknownTicket := "inv-000000-ffffffffffff"
	return map[string][]appliancetest.Route{
		"TestHomePageRendersUploadedService": {get("/", 200, "FlowService"), get("/", 200, "Upload file and generate WebService")},
		"TestHomePage404ForUnknownPaths":     {get("/definitely/not/here", 404, "")},
		"TestRegistryBrowserPage": {
			get("/registry", 200, "FlowService"), get("/registry", 200, "uddi:"),
			get("/registry?pattern=Nope%25", 200, "0 published"),
		},
		"TestAPIRegistrySortedJSON": {
			// Published out of name order; the listing comes back sorted.
			upload(200, nil, file("zeta.gsh", "echo z\n")), upload(200, nil, file("alpha.gsh", "echo a\n")),
			{Method: "GET", Path: "/api/registry", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				var recs []uddi.Record
				decode(t, r, &recs)
				var names []string
				for _, rec := range recs {
					if names = append(names, rec.Name); rec.Owner != "alice" {
						t.Errorf("record %v has no owner", rec)
					}
				}
				if got := strings.Join(names, " "); got != "AlphaService FlowService ZetaService" {
					t.Errorf("listing %s, want sorted by name", got)
				}
			}},
			{Method: "GET", Path: "/api/registry?pattern=Alpha%25", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				var recs []uddi.Record
				if decode(t, r, &recs); len(recs) != 1 || recs[0].Name != "AlphaService" {
					t.Errorf("pattern filter: %v", recs)
				}
			}},
		},
		"TestClientStubDownload": {{Method: "GET", Path: "/api/client?name=FlowService", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
			for _, want := range []string{"package main", "wsclient.ImportURL", `"execute"`, `"x": "0", // int`, f.App.BaseURL + "/services/FlowService"} {
				if !strings.Contains(r.Body, want) {
					t.Errorf("stub missing %q:\n%s", want, r.Body)
				}
			}
			if cd := r.Header.Get("Content-Disposition"); !strings.Contains(cd, "FlowService_client.go") {
				t.Errorf("disposition %q", cd)
			}
			// The stub is written from the deployed definition, with no round
			// trip to the appliance's own WSDL: it is what a consumer importing
			// that WSDL would generate, byte for byte.
			proxy, err := wsclient.ImportURL(f.App.BaseURL+"/services/FlowService", f.Web)
			if err != nil {
				t.Fatal(err)
			}
			if imported, err := wsclient.GenerateStub(proxy.Def); err != nil || r.Body != string(imported) {
				t.Errorf("served stub differs from the one the WSDL imports to (%v):\n%s\n---\n%s", err, r.Body, imported)
			}
		}}},
		"TestClientStubUnknownService": {get("/api/client?name=Ghost", 404, "")},
		"TestServiceDescribeAPI": {
			{Method: "GET", Path: "/api/service?name=FlowService", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				var info core.ExecutableInfo
				if decode(t, r, &info); info.ServiceName != "FlowService" || info.Owner != "alice" {
					t.Errorf("info %+v", info)
				}
			}},
			{Method: "GET", Path: "/api/services", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				var services []core.ExecutableInfo
				if decode(t, r, &services); len(services) != 1 || services[0].ServiceName != "FlowService" {
					t.Errorf("services %+v", services)
				}
			}},
		},
		"TestOutputFileDownload": {
			{Method: "GET", Path: "/api/outfile?ticket=" + ticket + "&name=artifact-5.bin", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				if len(r.Body) != 96 {
					t.Errorf("%d bytes, want the 96 written", len(r.Body))
				}
			}},
			// A missing artifact is a missing file, not a missing job.
			get("/api/outfile?ticket="+ticket+"&name=ghost.bin", 404, `"code":"no_such_file"`),
			get("/api/outfile?ticket="+unknownTicket+"&name=x", 404, ""),
		},
		"TestInvokeWaitOutputCancelViaAPI": {
			{Method: "GET", Path: "/api/wait?ticket=" + ticket, Status: 200, Check: wantState("DONE", "flow=5\n")},
			{Method: "GET", Path: "/api/output?ticket=" + ticket, Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				if r.Body != "flow=5\n" {
					t.Errorf("output %q", r.Body)
				}
			}},
			{Method: "GET", Path: "/api/status?ticket=" + ticket, Status: 200, Check: wantState("DONE", "")},
			// Cancel of a finished invocation is a clean no-op.
			post("/api/cancel?ticket="+ticket, 200),
		},
		"TestDeleteViaAPI": {
			post("/api/delete?name=FlowService", 200), get("/api/service?name=FlowService", 404, ""),
			// Method checks on the POST-only endpoints.
			get("/api/delete?name=x", 405, ""), get("/api/cancel?ticket=x", 405, ""), get("/api/invoke", 405, ""),
		},
		"TestInvokeBadJSON": {{Method: "POST", Path: "/api/invoke", Type: jsonType, Body: "{", Status: 400}},
		"TestMonitoringStats": {{Method: "GET", Path: "/api/stats", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
			var mon core.Monitoring
			decode(t, r, &mon)
			if !strings.Contains(fmt.Sprint(mon.Services), "FlowService") || mon.Invocations["DONE"] != 1 {
				t.Errorf("invocations %+v, services %+v", mon.Invocations, mon.Services)
			}
		}}},
		// The monitoring tallies stay inline (TestMonitoringStats), and the
		// collector, submission, staging and trace-ring counters ride alongside.
		"TestStatsSurfacesSubsystemCounters": {{Method: "GET", Path: "/api/stats", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
			var doc map[string]json.RawMessage
			decode(t, r, &doc)
			for _, key := range []string{"invocations", "services", "collector", "submit", "stage", "placement", "trace", "db"} {
				if _, ok := doc[key]; !ok {
					t.Errorf("/api/stats missing %q: %s", key, r.Body)
				}
			}
			var tr trace.CollectorStats
			if err := json.Unmarshal(doc["trace"], &tr); err != nil || tr.Spans == 0 {
				t.Errorf("trace ring empty after a traced invocation: %+v, %v", tr, err)
			}
		}}},
		"TestTraceExportAndWaterfall": {
			{Method: "GET", Path: "/api/trace/" + ticket, Status: 200, Check: traceDoc},
			{Method: "GET", Path: "/api/trace?ticket=" + ticket, Status: 200, Check: traceDoc},
			get("/trace?ticket="+ticket, 200, "onserve/invoke"), get("/trace?ticket="+ticket, 200, "gram/gram.submit"),
			get("/trace?ticket="+ticket, 200, `class="bar"`),
			get("/api/trace/no-such-ticket", 404, ""),
		},
		"TestUploadParamRowsBeyondThree": {upload(200, func(t testing.TB, info *core.ExecutableInfo) {
			if len(info.Params) != 4 {
				t.Errorf("params %+v", info.Params)
			}
		}, file("many.gsh", "echo ${a}${b}${c}${d}\n"), field("paramName1", "a"), field("paramType1", "string"), field("paramName2", "b"),
			field("paramType2", "string"), field("paramName3", "c"), field("paramType3", "string"), field("paramName4", "d"), field("paramType4", "string"))},
		// Rows 1 and 2 blank, row 3 set — as a browser form would post it.
		"TestUploadSkipsBlankParamRows": {upload(200, func(t testing.TB, info *core.ExecutableInfo) {
			if len(info.Params) != 1 || info.Params[0].Name != "later" || info.Params[0].Type != wsdl.TypeString {
				t.Errorf("params %+v", info.Params)
			}
		}, file("gaps.gsh", "echo ${later}\n"), field("paramName1", ""), field("paramType1", ""), field("paramName3", "later"), field("paramType3", ""))},
		"TestUploadWithStageInField": {upload(200, func(t testing.TB, info *core.ExecutableInfo) {
			if len(info.StageIn) != 2 || info.StageIn[0] != "a.dat" || info.StageIn[1] != "b.dat" {
				t.Errorf("stage-in %v", info.StageIn)
			}
		}, file("staged.gsh", "read a.dat\nread b.dat\n"), field("stageIn", " a.dat , b.dat "))},
		"TestUploadRejectsBadParamType": {upload(400, nil, file("badtype.gsh", "echo x\n"), field("paramName1", "p"), field("paramType1", "blob"))},
		"TestUploadMissingFile":         {upload(400, nil)},
		"TestUploadNonMultipart":        {{Method: "POST", Path: "/upload", Type: "text/plain", Body: "junk", Status: 400}},
	}
}

// serveRoutes serves t's rows of the route table on a fresh door.
func serveRoutes(t *testing.T) {
	name := t.Name()
	bubble.Test(t, func(t *testing.T) {
		f, ticket := door(t)
		rows := routes(f, ticket)[name]
		if len(rows) == 0 {
			t.Fatalf("the route table has no rows for %s", name)
		}
		f.Serve(t, rows...)
	})
}

func TestHomePageRendersUploadedService(t *testing.T) { serveRoutes(t) }
func TestHomePage404ForUnknownPaths(t *testing.T)     { serveRoutes(t) }
func TestRegistryBrowserPage(t *testing.T)            { serveRoutes(t) }
func TestAPIRegistrySortedJSON(t *testing.T)          { serveRoutes(t) }
func TestClientStubDownload(t *testing.T)             { serveRoutes(t) }
func TestClientStubUnknownService(t *testing.T)       { serveRoutes(t) }
func TestServiceDescribeAPI(t *testing.T)             { serveRoutes(t) }
func TestOutputFileDownload(t *testing.T)             { serveRoutes(t) }
func TestInvokeWaitOutputCancelViaAPI(t *testing.T)   { serveRoutes(t) }
func TestDeleteViaAPI(t *testing.T)                   { serveRoutes(t) }
func TestInvokeBadJSON(t *testing.T)                  { serveRoutes(t) }
func TestMonitoringStats(t *testing.T)                { serveRoutes(t) }
func TestStatsSurfacesSubsystemCounters(t *testing.T) { serveRoutes(t) }
func TestTraceExportAndWaterfall(t *testing.T)        { serveRoutes(t) }
func TestUploadParamRowsBeyondThree(t *testing.T)     { serveRoutes(t) }
func TestUploadSkipsBlankParamRows(t *testing.T)      { serveRoutes(t) }
func TestUploadWithStageInField(t *testing.T)         { serveRoutes(t) }
func TestUploadRejectsBadParamType(t *testing.T)      { serveRoutes(t) }
func TestUploadMissingFile(t *testing.T)              { serveRoutes(t) }
func TestUploadNonMultipart(t *testing.T)             { serveRoutes(t) }

func TestRegistryPageWithoutRegistry(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		rec := httptest.NewRecorder()
		portal.New(f.App.OnServe, nil, nil, metrics.Cost{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/registry", nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status %d", rec.Code)
		}
	})
}

// TestUploadAndInvokeJoinCallerTrace pins header propagation at the
// portal boundary: a caller-supplied X-Grid-Trace parents the upload and
// invocation trees, and a malformed header degrades to a fresh root
// trace instead of rejecting the request.
func TestUploadAndInvokeJoinCallerTrace(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f, _ := door(t)
		ons := f.App.OnServe
		invoke := func(header string) *core.Invocation {
			t.Helper()
			req, _ := http.NewRequest("POST", f.App.BaseURL+"/api/invoke", strings.NewReader(`{"service":"FlowService","args":{"x":"2"}}`))
			req.Header.Set("Content-Type", jsonType)
			req.Header.Set(trace.Header, header)
			resp, err := f.Web.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var out portal.InvokeReply
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("invoke with %s %q: status %d", trace.Header, header, resp.StatusCode)
			}
			inv, err := ons.Invocation(out.Ticket)
			if err != nil {
				t.Fatal(err)
			}
			<-inv.DoneChan()
			return inv
		}
		root := trace.NewTracer("cli", nil, f.Trace).StartRoot("cli.invoke")
		invoke(root.Context().String())
		root.End()
		spans := f.Trace.Trace(root.Context().String()[:32])
		var invokeRoot *trace.SpanData
		for i := range spans {
			if spans[i].Name == "invoke" {
				invokeRoot = &spans[i]
			}
		}
		if invokeRoot == nil {
			t.Fatalf("invocation did not join the caller's trace: %d spans", len(spans))
		}
		if invokeRoot.ParentID != spans[0].SpanID || spans[0].Name != "cli.invoke" {
			t.Fatalf("invoke span not parented under the CLI root: %+v", invokeRoot)
		}

		// Malformed header: accepted request, fresh root trace.
		spans2, err := ons.InvocationTrace(invoke("zz-not-a-trace").Ticket)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans2) == 0 || spans2[0].TraceID == spans[0].TraceID {
			t.Fatalf("malformed header did not mint a fresh root trace")
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing, so what an
// allocation guard counts is the handler's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestWaitDoorAllocations bounds what the JSON door's /api/wait allocates
// for a finished invocation: one object, the JSON encoder. The ticket's
// query scan and lookup and the shared Content-Type allocate nothing.
func TestWaitDoorAllocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f, ticket := door(t)
		req := httptest.NewRequest(http.MethodGet, "/api/wait?ticket="+ticket, nil)
		w := &discardWriter{header: http.Header{}}
		f.App.Portal.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.header.Get("Content-Type") != jsonType {
			t.Fatalf("wait: status %d, header %v", w.status, w.header)
		}
		allocs := testing.AllocsPerRun(200, func() {
			delete(w.header, "Content-Type")
			f.App.Portal.ServeHTTP(w, req)
		})
		t.Logf("/api/wait of a finished invocation: %.0f objects", allocs)
		if allocs > 1 {
			t.Fatalf("/api/wait of a finished invocation allocates %.0f objects, want <= 1", allocs)
		}
	})
}
