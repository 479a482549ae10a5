// Package portal implements the Cyberaide onServe web portal: the
// extended Cyberaide portal of the paper with its "Upload file and
// generate Web Service" dialog (Fig. 3). A browser form (or the JSON API
// the CLI uses) uploads an executable with a description and parameter
// declarations; the portal hands it to the onServe core, which stores it,
// generates the Web service, and publishes it.
package portal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/errcode"
	"repro/internal/flatjson"
	"repro/internal/jsonwarm"
	"repro/internal/metrics"
	"repro/internal/sizedio"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

// MaxUploadBytes bounds one upload request's file part (the fleet gateway
// sizes its body buffer by it). A file is refused well inside it: the
// first byte past gsh.MaxProgramBytes ends the read (core.ReadUpload).
const MaxUploadBytes = 256 << 20

// Portal serves the UI and JSON API on top of an OnServe instance.
type Portal struct {
	onserve  *core.OnServe
	registry *uddi.Registry
	probe    *metrics.Probe
	mux      *http.ServeMux
}

// New builds a portal for ons. registry enables the /registry browser
// page (the UDDI inspection tool the paper notes its solution lacks);
// probe may be nil.
func New(ons *core.OnServe, registry *uddi.Registry, probe *metrics.Probe) *Portal {
	p := &Portal{onserve: ons, registry: registry, probe: probe}
	mux := http.NewServeMux()
	mux.HandleFunc("/", p.home)
	mux.HandleFunc("/upload", postOnly(p.upload))
	mux.HandleFunc("/registry", p.registryPage)
	mux.HandleFunc("/trace", p.tracePage)
	mux.HandleFunc("/api/stats", p.apiStats)
	mux.HandleFunc("/api/trace", p.apiTrace)
	mux.HandleFunc("/api/trace/", p.apiTrace)
	mux.HandleFunc("/api/services", p.apiServices)
	mux.HandleFunc("/api/registry", p.apiRegistry)
	mux.HandleFunc("/api/service", p.apiService)
	mux.HandleFunc("/api/client", p.apiClient)
	mux.HandleFunc("/api/invoke", postOnly(p.apiInvoke))
	mux.HandleFunc("/api/status", p.apiStatus)
	mux.HandleFunc("/api/output", p.apiOutput)
	mux.HandleFunc("/api/outfile", p.apiOutputFile)
	mux.HandleFunc("/api/wait", p.apiWait)
	mux.HandleFunc("/api/cancel", postOnly(p.apiCancel))
	mux.HandleFunc("/api/delete", postOnly(p.apiDelete))
	mux.HandleFunc("/api/audit", p.apiAudit)
	p.mux = mux
	return p
}

// postOnly refuses every method but POST before h runs.
func postOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			errcode.Refuse(http.StatusMethodNotAllowed, "POST only").Write(w)
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (p *Portal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

var homeTmpl = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html><head><title>Cyberaide onServe</title></head>
<body>
<h1>Cyberaide onServe</h1>
<p>Software as a Service on Production Grids.</p>
<h2>File upload and Web Service generation</h2>
<form action="/upload" method="post" enctype="multipart/form-data">
  <p>Choose file to upload: <input type="file" name="file"></p>
  <p>User: <input type="text" name="user"></p>
  <p>Description: <input type="text" name="description"></p>
  <p>Parameter-Name 1 <input type="text" name="paramName1">
     Parameter-Type 1 <input type="text" name="paramType1"></p>
  <p>Parameter-Name 2 <input type="text" name="paramName2">
     Parameter-Type 2 <input type="text" name="paramType2"></p>
  <p>Parameter-Name 3 <input type="text" name="paramName3">
     Parameter-Type 3 <input type="text" name="paramType3"></p>
  <p><input type="submit" value="Upload file and generate WebService"></p>
</form>
<h2>Generated services</h2>
<ul>
{{range .}}<li><a href="{{.WSDLURL}}">{{.ServiceName}}</a> — {{.Description}} (owner {{.Owner}})</li>
{{end}}</ul>
</body></html>
`))

func (p *Portal) home(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	services, err := p.onserve.Services()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	homeTmpl.Execute(w, services)
}

// upload is the paper's "Upload file and generate Web Service" action:
// the form's information is passed through, the file lands on the portal
// server, and the onServe function generates and publishes the service.
func (p *Portal) upload(w http.ResponseWriter, r *http.Request) {
	// The key rides in the header block, so authentication happens
	// before a single body byte is parsed; policy runs later, once the
	// multipart form has yielded the service name.
	pr, ok := p.authenticate(w, tenant.VerbUpload, r)
	if !ok {
		return
	}
	p.probe.Request()
	form, err := readUploadForm(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.Is(err, sizedio.ErrTooLarge) || errors.As(err, &tooLarge) {
			status, err = http.StatusRequestEntityTooLarge, errors.New("portal: file too large")
		}
		errcode.Refuse(status, err.Error()).Write(w)
		return
	}
	// Reception CPU (Fig. 8): proportional to the upload size.
	p.probe.Receive(form.file.RawSize())

	user := form.fields.Get("user")
	description := form.fields.Get("description")
	var params []wsdl.ParamDef
	for i := 1; ; i++ {
		name := strings.TrimSpace(form.fields.Get("paramName" + strconv.Itoa(i)))
		typ := strings.TrimSpace(form.fields.Get("paramType" + strconv.Itoa(i)))
		if name == "" && typ == "" {
			if i > 3 { // the form always posts three rows; APIs may post more
				break
			}
			continue
		}
		if name == "" {
			break
		}
		if typ == "" {
			typ = wsdl.TypeString
		}
		params = append(params, wsdl.ParamDef{Name: name, Type: typ})
	}

	// Malformed trace headers degrade to a fresh root trace, never a
	// rejected upload (parse-before-auth).
	tc, _ := trace.Parse(r.Header.Get(trace.Header))
	// Policy wants the service name the upload will publish as; it is a
	// pure function of the filename, so evaluate it pre-admission. A
	// name the core would reject is admitted under the raw filename and
	// fails downstream exactly as it would without tenancy.
	svcName := form.fileName
	if n, err := core.ServiceNameFor(form.fileName); err == nil {
		svcName = n
	}
	adm, ok := p.admit(w, pr, tenant.VerbUpload, svcName, tc)
	if !ok {
		return
	}
	rec, err := p.onserve.UploadAndGenerateFrom(user, form.fileName, description, params, form.file, adm.ParentFor(tc))
	if err != nil {
		adm.Finish("", err)
		WriteError(w, err)
		return
	}
	// Optional comma-separated stage-in declaration: input files the
	// owner stages to the Grid out of band.
	if stageIn := strings.TrimSpace(form.fields.Get("stageIn")); stageIn != "" {
		var files []string
		for _, f := range strings.Split(stageIn, ",") {
			if f = strings.TrimSpace(f); f != "" {
				files = append(files, f)
			}
		}
		if err := p.onserve.SetStageIn(rec.Name, files); err != nil {
			adm.Finish("", err)
			WriteError(w, err)
			return
		}
	}
	adm.Finish("", nil)
	writeJSON(w, http.StatusOK, rec)
}

// maxUploadBody bounds one /upload request body: the file cap plus
// maxFieldBytes of form fields and multipart framing — the same figure
// the fleet gateway buffers up to (its maxBody).
const (
	maxFieldBytes = 1 << 20
	maxUserBytes  = 4 << 10
	maxUploadBody = MaxUploadBytes + maxFieldBytes
)

// uploadForm is a decoded /upload request.
type uploadForm struct {
	fileName string
	file     *core.Upload
	// fields holds the text fields, query-string values ahead of form
	// fields — the precedence r.FormValue gives a multipart request.
	fields url.Values
}

// formParts opens an upload body as the multipart form its content type
// declares, under the rules of http.Request.MultipartReader.
func formParts(contentType string, body io.Reader) (*multipart.Reader, error) {
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil || (mediaType != "multipart/form-data" && mediaType != "multipart/mixed") {
		return nil, fmt.Errorf("portal: parse form: %w", http.ErrNotMultipart)
	}
	boundary, ok := params["boundary"]
	if !ok {
		return nil, fmt.Errorf("portal: parse form: %w", http.ErrMissingBoundary)
	}
	return multipart.NewReader(body, boundary), nil
}

// walkUploadForm reads an upload body part by part, in any order, and is
// the one place the form's rules live. As in mime/multipart's ReadForm, a
// part without a filename and without a Content-Type is a text field: it
// is read under the form's budget (maxFieldBytes over all names and
// values, maxUserBytes for one "user") and handed to field. The first
// other part named "file" is the upload and goes to file unread; what
// file leaves of it, and every other part, is skipped, and an error of
// file's comes back as it is. A body that does not parse to its closing
// boundary, or carries no file, is an error.
// Callers that collect the fields behind the query string's values and
// take the first of each give the query the precedence r.FormValue does.
func walkUploadForm(mr *multipart.Reader, field func(name, value string), file func(fileName string, content io.Reader) error) error {
	haveFile := false
	budget := int64(maxFieldBytes)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("portal: parse form: %w", err)
		}
		name := part.FormName()
		if _, typed := part.Header["Content-Type"]; !typed && part.FileName() == "" && name != "" {
			if budget -= int64(len(name)); budget < 0 {
				return sizedio.ErrTooLarge
			}
			limit := budget
			if name == "user" {
				limit = min(limit, maxUserBytes)
			}
			value, err := sizedio.ReadAll(part, -1, limit)
			if err != nil {
				return fmt.Errorf("portal: parse form: %w", err)
			}
			budget -= int64(len(value))
			field(name, string(value))
		} else if name == "file" && !haveFile {
			haveFile = true
			if err := file(part.FileName(), part); err != nil {
				return err
			}
		}
	}
	if !haveFile {
		return fmt.Errorf("portal: missing file: %w", http.ErrMissingFile)
	}
	return nil
}

// readUploadForm streams the multipart body through walkUploadForm. The
// file part is read once, by core.ReadUpload, which hashes, scans and
// deflates it as it arrives: the form holds the stored stream a row will
// keep and never the file. Nothing is spilled to a temp file, nothing is
// stored before the body has parsed to its closing boundary, and a body
// past maxUploadBody is cut off by http.MaxBytesReader.
func readUploadForm(w http.ResponseWriter, r *http.Request) (*uploadForm, error) {
	if r.ContentLength > maxUploadBody {
		return nil, sizedio.ErrTooLarge
	}
	mr, err := formParts(r.Header.Get("Content-Type"), http.MaxBytesReader(w, r.Body, maxUploadBody))
	if err != nil {
		return nil, err
	}
	form := &uploadForm{fields: r.URL.Query()}
	err = walkUploadForm(mr, form.fields.Add, func(fileName string, content io.Reader) (err error) {
		form.fileName = fileName
		form.file, err = core.ReadUpload(content, r.ContentLength)
		return err
	})
	return form, err
}

// UploadIdentity reads from an /upload body the name of the file it
// publishes, as readUploadForm finds it (the same walk, so the two cannot
// disagree) but without copying the file. The fleet gateway routes
// uploads by the service that name makes.
func UploadIdentity(contentType string, body []byte) (fileName string, err error) {
	mr, err := formParts(contentType, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	err = walkUploadForm(mr, func(string, string) {}, func(name string, _ io.Reader) error {
		fileName = name
		return nil
	})
	return fileName, err
}

var registryTmpl = template.Must(template.New("registry").Parse(`<!DOCTYPE html>
<html><head><title>UDDI registry</title></head>
<body>
<h1>UDDI registry</h1>
<p>{{len .}} published service(s). Pattern filtering: append ?pattern=Monte%25</p>
<table border="1" cellpadding="4">
<tr><th>name</th><th>key</th><th>owner</th><th>endpoint</th><th>WSDL</th><th>published</th></tr>
{{range .}}<tr>
  <td>{{.Name}}</td><td>{{.Key}}</td><td>{{.Owner}}</td>
  <td><a href="{{.Endpoint}}">{{.Endpoint}}</a></td>
  <td><a href="{{.WSDLURL}}">wsdl</a></td>
  <td>{{.PublishedAt.Format "2006-01-02 15:04:05"}}</td>
</tr>
{{end}}</table>
</body></html>
`))

// registryPage is the UDDI browser the paper's solution lacked: "the
// user has to do so by using external tools as the presented solution
// doesn't come with a tool to examine UDDI registries" (§VIII-D4).
func (p *Portal) registryPage(w http.ResponseWriter, r *http.Request) {
	if p.registry == nil {
		http.Error(w, "registry browsing not enabled", http.StatusNotFound)
		return
	}
	WriteRegistryPage(w, p.registry.Find(query(r, "pattern")))
}

// WriteRegistryPage renders the registry browser over recs; the fleet
// gateway renders the union of its members' listings through it.
func WriteRegistryPage(w http.ResponseWriter, recs []uddi.Record) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	registryTmpl.Execute(w, recs)
}

// apiRegistry is the machine-readable registry listing, sorted by
// service name (uddi.Registry.Find sorts). A fleet gateway gathers it
// from every member for its /registry page; ?pattern= filters with the
// UDDI '%' wildcard.
func (p *Portal) apiRegistry(w http.ResponseWriter, r *http.Request) {
	if p.registry == nil {
		errcode.Refuse(http.StatusNotFound, "portal: no registry").Write(w)
		return
	}
	recs := p.registry.Find(query(r, "pattern"))
	if recs == nil {
		recs = []uddi.Record{}
	}
	writeJSON(w, http.StatusOK, recs)
}

var traceTmpl = template.Must(template.New("trace").Parse(`<!DOCTYPE html>
<html><head><title>Trace {{.Ticket}}</title><style>
body { font-family: monospace; }
.row { position: relative; height: 1.4em; }
.bar { position: absolute; background: #8ac; height: 1.1em; min-width: 2px; }
.bar.error { background: #c66; }
.label { position: absolute; left: 0; white-space: nowrap; }
.lane { position: relative; margin-left: 28em; border-left: 1px solid #ccc; }
</style></head>
<body>
<h1>Trace {{.Ticket}}</h1>
<p>{{len .Spans}} span(s), {{printf "%.1f" .TotalMS}} ms total. Lookup: <form action="/trace" style="display:inline"><input name="ticket" value="{{.Ticket}}"><input type="submit" value="view"></form></p>
{{range .Spans}}<div class="row">
  <span class="label">{{.Indent}}{{.Service}}/{{.Name}} {{printf "%.1f" .DurationMS}}ms{{if .Detail}} [{{.Detail}}]{{end}}</span>
  <div class="lane"><div class="bar{{if .Error}} error{{end}}" style="left: {{printf "%.2f" .LeftPct}}%; width: {{printf "%.2f" .WidthPct}}%"></div></div>
</div>
{{end}}
</body></html>
`))

// tracePage renders the invocation's span tree as an HTML waterfall:
// one row per span, indented by tree depth, with a bar positioned on
// the trace's own timeline.
func (p *Portal) tracePage(w http.ResponseWriter, r *http.Request) {
	ticket := query(r, "ticket")
	spans, err := p.onserve.InvocationTrace(ticket)
	if err != nil {
		status, _ := core.Cause(err)
		http.Error(w, err.Error(), status)
		return
	}
	type row struct {
		trace.SpanData
		Indent   string
		Detail   string
		Error    bool
		LeftPct  float64
		WidthPct float64
	}
	view := struct {
		Ticket  string
		TotalMS float64
		Spans   []row
	}{Ticket: ticket}
	if len(spans) > 0 {
		t0 := spans[0].Start
		t1 := spans[0].End
		for _, sd := range spans {
			if sd.Start.Before(t0) {
				t0 = sd.Start
			}
			if sd.End.After(t1) {
				t1 = sd.End
			}
		}
		total := t1.Sub(t0)
		view.TotalMS = float64(total) / 1e6
		depths := make(map[string]int, len(spans))
		for _, sd := range spans { // spans are start-sorted, parents first
			d := 0
			if sd.ParentID != "" {
				d = depths[sd.ParentID] + 1
			}
			depths[sd.SpanID] = d
			var details []string
			for _, k := range []string{"site", "bytes", "state", "cache"} {
				if v, ok := sd.Attrs[k]; ok {
					details = append(details, k+"="+v)
				}
			}
			rw := row{
				SpanData: sd,
				Indent:   strings.Repeat("· ", d),
				Detail:   strings.Join(details, " "),
				Error:    sd.Status == "error",
			}
			if total > 0 {
				rw.LeftPct = float64(sd.Start.Sub(t0)) / float64(total) * 100
				rw.WidthPct = float64(sd.End.Sub(sd.Start)) / float64(total) * 100
			}
			view.Spans = append(view.Spans, rw)
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	traceTmpl.Execute(w, view)
}

// apiClient serves a ready-to-edit Go client stub for a generated
// service — the paper's suggested improvement over making every consumer
// run wsimport themselves. The stub is written from the definition the
// container serves the service's WSDL from.
func (p *Portal) apiClient(w http.ResponseWriter, r *http.Request) {
	name := query(r, "name")
	def, err := p.onserve.ServiceDef(name)
	if err != nil {
		WriteError(w, err)
		return
	}
	stub, err := wsclient.GenerateStub(def)
	if err != nil {
		WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/x-go; charset=utf-8")
	w.Header().Set("Content-Disposition", "attachment; filename=\""+name+"_client.go\"")
	w.Write(stub)
}

func (p *Portal) apiOutputFile(w http.ResponseWriter, r *http.Request) {
	data, err := p.onserve.InvocationOutputFile(
		query(r, "ticket"), query(r, "name"))
	if err != nil {
		WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// The types this package sends through encoding/json (jsonwarm).
func init() {
	jsonwarm.List(&uddi.Record{}, []uddi.Record{}, statsPayload{}, map[string]any{}, "", []trace.SpanData{}, []core.ExecutableInfo{},
		&core.ExecutableInfo{}, InvokeRequest{}, InvokeReply{}, WaitReply{}, cancelReply{}, deleteReply{}, AuditReply{})
}

// statsPayload is the /api/stats document: the monitoring tallies the
// seed portal served (inlined, so existing consumers keep decoding it
// into core.Monitoring), extended with the collector, submission and
// staging counters and — when tracing is on — the trace ring's
// occupancy.
type statsPayload struct {
	core.Monitoring
	// Collector is the poll-side counters: status RPCs, output fetches
	// and bytes, not-modified skips, poll disk writes.
	Collector core.CollectorStats `json:"collector"`
	// Events is the push-collection path: streams opened, events
	// delivered, reconnects/cursor resumes, fallbacks to polling.
	Events core.EventStats `json:"events"`
	// Submit is the submission front-end: submit RPCs, upload
	// counts/retries, coalesced stagings, stats fetches.
	Submit core.SubmitStats `json:"submit"`
	// Stage is the chunked-staging data plane: chunks shipped/deduped,
	// wire vs payload bytes, fallbacks, replications.
	Stage core.StageStats `json:"stage"`
	// Placement is the data-aware placement control plane: possession
	// probes and cache hits, redirected placements.
	Placement core.PlacementStats `json:"placement"`
	// Trace is the span ring's occupancy (spans, bytes, evictions);
	// omitted while tracing is off.
	Trace *trace.CollectorStats `json:"trace,omitempty"`
	// Tenant is the multi-tenant control plane's admission counters;
	// omitted while tenancy is off, so the stock document's bytes are
	// unchanged.
	Tenant *tenant.Stats `json:"tenant,omitempty"`
}

// apiStats serves the monitoring snapshot.
func (p *Portal) apiStats(w http.ResponseWriter, r *http.Request) {
	payload := statsPayload{
		Monitoring: p.onserve.Monitoring(),
		Collector:  p.onserve.CollectorStats(),
		Events:     p.onserve.EventStats(),
		Submit:     p.onserve.SubmitStats(),
		Stage:      p.onserve.StageStats(),
		Placement:  p.onserve.PlacementStats(),
	}
	if col := p.onserve.Tracer().Collector(); col != nil {
		st := col.Stats()
		payload.Trace = &st
	}
	if ctl := p.onserve.Tenancy(); ctl != nil {
		st := ctl.Stats()
		payload.Tenant = &st
	}
	writeJSON(w, http.StatusOK, payload)
}

// apiTrace exports one invocation's span tree as JSON. The ticket
// rides either in the path (/api/trace/<ticket>) or, for clients that
// prefer the query form the other ticket endpoints use, ?ticket=.
func (p *Portal) apiTrace(w http.ResponseWriter, r *http.Request) {
	ticket := strings.TrimPrefix(r.URL.Path, "/api/trace")
	ticket = strings.TrimPrefix(ticket, "/")
	if ticket == "" {
		ticket = query(r, "ticket")
	}
	spans, err := p.onserve.InvocationTrace(ticket)
	if err != nil {
		WriteError(w, err)
		return
	}
	if spans == nil {
		spans = []trace.SpanData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"ticket": ticket, "spans": spans})
}

func (p *Portal) apiServices(w http.ResponseWriter, r *http.Request) {
	services, err := p.onserve.Services()
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, services)
}

func (p *Portal) apiService(w http.ResponseWriter, r *http.Request) {
	info, err := p.onserve.ServiceInfo(query(r, "name"))
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (p *Portal) apiInvoke(w http.ResponseWriter, r *http.Request) {
	pr, ok := p.authenticate(w, tenant.VerbInvoke, r)
	if !ok {
		return
	}
	p.probe.Request()
	req, err := ReadInvokeRequest(r.Body, r.ContentLength)
	r.Body.Close() // read whole: the server need not look for more of it
	if err != nil {
		errcode.Refuse(http.StatusBadRequest, err.Error()).Write(w)
		return
	}
	tc, _ := trace.Parse(r.Header.Get(trace.Header))
	inv, err := p.onserve.InvokeAs(pr, req.Service, req.Args, tc)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, InvokeReply{JobID: inv.JobID, Site: inv.Site, Ticket: inv.Ticket})
}

// InvokeRequest is the body of POST /api/invoke. The wire's documents
// are exported so that whoever speaks it — Client, the fleet gateway's
// route decoder — names the portal's own types instead of re-declaring
// them.
type InvokeRequest struct {
	Service string            `json:"service"`
	Args    map[string]string `json:"args"`
}

const maxInvokeBody = 1 << 20 // what is read of an /api/invoke body

// ReadInvokeRequest is the one reader of an /api/invoke body: its first
// maxInvokeBody bytes, read into one buffer sized by declared (the
// Content-Length, or -1), then decoded by decodeInvoke.
func ReadInvokeRequest(body io.Reader, declared int64) (InvokeRequest, error) {
	buf, err := sizedio.ReadAll(io.LimitReader(body, maxInvokeBody), min(declared, maxInvokeBody), maxInvokeBody)
	if err != nil {
		return InvokeRequest{}, err
	}
	return decodeInvoke(buf, true)
}

// InvokeService is the service decodeInvoke reads in an /api/invoke body,
// args checked but not kept: what the fleet gateway routes by.
func InvokeService(body []byte) (string, error) {
	req, err := decodeInvoke(body, false)
	return req.Service, err
}

// decodeInvoke reads body as json.NewDecoder(…).Decode reads it into an
// InvokeRequest. The shape json.Marshal writes — Client's body — is read
// by a flatjson walk; any other body goes to the decoder, so every body
// gets the decoder's answer (FuzzInvokeBody).
func decodeInvoke(body []byte, keepArgs bool) (InvokeRequest, error) {
	var req InvokeRequest
	o := flatjson.Open(body)
	for o.Next() {
		switch string(o.Key()) {
		case "service":
			req.Service = o.String()
		case "args":
			req.Args = o.Map(keepArgs)
		default:
			o.Fail()
		}
	}
	if o.Done() {
		return req, nil
	}
	var decoded InvokeRequest // a variable of its own: Decode's pointer moves it to the heap
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&decoded)
	return decoded, err
}

// InvokeReply and WaitReply are the bodies of /api/invoke and /api/wait,
// the two replies every invocation through the JSON door gets. They were
// map[string]string; the fields are declared in the order encoding/json
// sorts map keys, so the bytes are the same without the sort and the
// reflective map walk.
type InvokeReply struct {
	JobID  string `json:"job_id"`
	Site   string `json:"site"`
	Ticket string `json:"ticket"`
}

type WaitReply struct {
	Message string `json:"message"`
	Output  string `json:"output"`
	State   string `json:"state"`
}

// cancelReply and deleteReply are the bodies of /api/cancel and
// /api/delete, maps until they followed the two above. AuditReply, the
// body of /api/audit, declares its fields in the order a map's keys were
// written in, as errcode.Refusal does.
type cancelReply struct {
	State string `json:"state"`
}

type deleteReply struct {
	Deleted string `json:"deleted"`
}

type AuditReply struct {
	Dropped uint64          `json:"dropped"`
	Records []tenant.Record `json:"records"`
}

// query is r's first value for key, as r.URL.Query().Get(key) reads it:
// a query that does not parse is read as far as it does.
func query(r *http.Request, key string) string {
	v, _ := QueryGet(r.URL.RawQuery, key)
	return v
}

// QueryGet returns url.ParseQuery(raw).Get(key) and ParseQuery's error in
// one scan and without the map: only a segment with an escape is unescaped.
func QueryGet(raw, key string) (value string, err error) {
	found := false
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(seg, ";") {
			err = errors.New("invalid semicolon separator in query")
			continue
		}
		if seg == "" {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		k, err1 := queryUnescape(k)
		if err1 == nil {
			v, err1 = queryUnescape(v)
		}
		if err1 != nil {
			if err == nil {
				err = err1
			}
			continue
		}
		if !found && k == key {
			value, found = v, true
		}
	}
	return value, err
}

// queryUnescape is url.QueryUnescape, which returns s itself when it has
// no escape, without the scan.
func queryUnescape(s string) (string, error) {
	if strings.ContainsAny(s, "%+") {
		return url.QueryUnescape(s)
	}
	return s, nil
}

func (p *Portal) withInvocation(w http.ResponseWriter, r *http.Request, fn func(*core.Invocation)) {
	inv, err := p.onserve.Invocation(query(r, "ticket"))
	if err != nil {
		WriteError(w, err)
		return
	}
	fn(inv)
}

func (p *Portal) apiStatus(w http.ResponseWriter, r *http.Request) {
	p.withInvocation(w, r, func(inv *core.Invocation) {
		s, err := inv.StatusJSON()
		if err != nil {
			WriteError(w, err)
			return
		}
		w.Header()["Content-Type"] = jsonType
		io.WriteString(w, s)
	})
}

func (p *Portal) apiOutput(w http.ResponseWriter, r *http.Request) {
	p.withInvocation(w, r, func(inv *core.Invocation) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, inv.Output())
	})
}

func (p *Portal) apiWait(w http.ResponseWriter, r *http.Request) {
	p.withInvocation(w, r, func(inv *core.Invocation) {
		<-inv.DoneChan()
		writeJSON(w, http.StatusOK, WaitReply{Message: inv.Message(), Output: inv.Output(), State: string(inv.State())})
	})
}

func (p *Portal) apiCancel(w http.ResponseWriter, r *http.Request) {
	pr, ok := p.authenticate(w, tenant.VerbCancel, r)
	if !ok {
		return
	}
	tc, _ := trace.Parse(r.Header.Get(trace.Header))
	if err := p.onserve.CancelAs(pr, query(r, "ticket"), tc); err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cancelReply{State: "cancelling"})
}

func (p *Portal) apiDelete(w http.ResponseWriter, r *http.Request) {
	pr, ok := p.authenticate(w, tenant.VerbDelete, r)
	if !ok {
		return
	}
	name := query(r, "name")
	tc, _ := trace.Parse(r.Header.Get(trace.Header))
	adm, ok := p.admit(w, pr, tenant.VerbDelete, name, tc)
	if !ok {
		return
	}
	if err := p.onserve.DeleteService(name); err != nil {
		adm.Finish("", err)
		WriteError(w, err)
		return
	}
	adm.Finish("", nil)
	writeJSON(w, http.StatusOK, deleteReply{Deleted: name})
}

// apiAudit serves the control plane's audit ring, newest first
// (?owner= filters, ?n= bounds, default 50). With tenancy off the
// path 404s exactly as it did before the subsystem existed.
func (p *Portal) apiAudit(w http.ResponseWriter, r *http.Request) {
	ctl := p.onserve.Tenancy()
	if ctl == nil {
		http.NotFound(w, r)
		return
	}
	n := 50
	if s := query(r, "n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	recs := ctl.Audit(query(r, "owner"), n)
	if recs == nil {
		recs = []tenant.Record{}
	}
	writeJSON(w, http.StatusOK, AuditReply{Dropped: ctl.AuditDropped(), Records: recs})
}

// authenticate resolves the X-Grid-Key header to a principal before
// any body read. With tenancy off it admits anonymously and touches
// nothing, keeping the stock wire behaviour byte-identical.
func (p *Portal) authenticate(w http.ResponseWriter, verb tenant.Verb, r *http.Request) (tenant.Principal, bool) {
	ctl := p.onserve.Tenancy()
	if ctl == nil {
		return tenant.Principal{}, true
	}
	pr, err := ctl.Authenticate(r.Header.Get(tenant.KeyHeader), verb)
	if err != nil {
		WriteError(w, err)
		return tenant.Principal{}, false
	}
	return pr, true
}

// admit runs the policy/rate/quota stages. A nil admission with ok ==
// true means tenancy is off; every Admission method is nil-safe, so
// handlers call through without branching.
func (p *Portal) admit(w http.ResponseWriter, pr tenant.Principal, verb tenant.Verb, service string, tc trace.SpanContext) (*tenant.Admission, bool) {
	ctl := p.onserve.Tenancy()
	if ctl == nil {
		return nil, true
	}
	adm, err := ctl.Admit(pr, verb, service, tc)
	if err != nil {
		WriteError(w, err)
		return nil, false
	}
	return adm, true
}

// jsonType is every JSON reply's Content-Type value, shared: net/http
// copies a handler's header before it writes it, and nothing writes into
// the slice.
var jsonType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers err in the error envelope (errcode.Refusal) under the
// status and code core.Cause names it by. HTML pages (/, /registry,
// /trace) keep their plain responses; every /api/* and /upload error
// speaks this envelope, the door's own refusals through errcode.Refuse,
// and the fleet gateway passes it through verbatim.
func WriteError(w http.ResponseWriter, err error) {
	status, code := core.Cause(err)
	(&errcode.Refusal{Status: status, Code: code, Msg: err.Error()}).Write(w)
}
