package soap

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sizedio"
	"repro/internal/trace"
	"repro/internal/wsdl"
)

// MaxRequestBytes bounds one SOAP request (uploads travel through the
// portal or GridFTP, not through SOAP bodies, but service generation
// requests can still carry sizeable payloads).
const MaxRequestBytes = 256 << 20

// Handler implements one operation. It receives the decoded message and
// returns the payload for the <return> element.
type Handler func(req *Request) (string, error)

// Request carries everything a handler may need.
type Request struct {
	Msg        *Message
	Args       map[string]string
	RemoteAddr string
	Service    *Service
	Op         *wsdl.OperationDef
	// Trace is the raw X-Grid-Trace header value (possibly empty or
	// malformed — handlers parse it with trace.Parse, which degrades
	// malformed contexts to "untraced").
	Trace string
}

// Service is a deployed SOAP service: its WSDL-facing definition plus the
// operation handlers.
type Service struct {
	Def      wsdl.ServiceDef
	handlers map[string]Handler

	statsMu  sync.Mutex
	requests int64
	faults   int64
}

// ServiceStats is a monitoring snapshot for one deployed service —
// §IV requires that generated services "can be accessed, published,
// monitored and manipulated like a normal Web service".
type ServiceStats struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	Faults   int64  `json:"faults"`
}

func (s *Service) count(fault bool) {
	s.statsMu.Lock()
	s.requests++
	if fault {
		s.faults++
	}
	s.statsMu.Unlock()
}

// Stats snapshots the service's counters.
func (s *Service) Stats() ServiceStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return ServiceStats{Name: s.Def.Name, Requests: s.requests, Faults: s.faults}
}

// NewService builds a service from a definition. Handlers are attached
// with Bind.
func NewService(def wsdl.ServiceDef) *Service {
	return &Service{Def: def, handlers: make(map[string]Handler)}
}

// Bind attaches a handler to the named operation; the operation must
// exist in the definition.
func (s *Service) Bind(op string, h Handler) error {
	if s.Def.Operation(op) == nil {
		return fmt.Errorf("soap: service %s has no operation %q", s.Def.Name, op)
	}
	s.handlers[op] = h
	return nil
}

// MustBind is Bind for static wiring known correct at compile time.
func (s *Service) MustBind(op string, h Handler) {
	if err := s.Bind(op, h); err != nil {
		panic(err)
	}
}

// Server is the SOAP container. Services deploy and undeploy at runtime —
// the mechanism onServe uses to bring generated services online. It
// serves under basePath: POST invokes, GET with ?wsdl returns the service
// description.
type Server struct {
	probe *metrics.Probe
	cost  metrics.Cost

	mu       sync.RWMutex
	services map[string]*Service
}

// NewServer returns an empty container. probe may be nil; cost models the
// per-request container overhead the paper attributes to "tomcat handling
// the request and loading the java-classes".
func NewServer(probe *metrics.Probe, cost metrics.Cost) *Server {
	return &Server{
		probe:    probe,
		cost:     cost,
		services: make(map[string]*Service),
	}
}

// Deploy makes the service live. Deploying a name twice replaces the old
// deployment, matching servlet-container redeploy semantics.
func (s *Server) Deploy(svc *Service) error {
	if err := svc.Def.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.services[svc.Def.Name] = svc
	s.mu.Unlock()
	return nil
}

// Undeploy removes a service; it reports whether the name was deployed.
func (s *Server) Undeploy(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.services[name]; !ok {
		return false
	}
	delete(s.services, name)
	return true
}

// Lookup returns a deployed service.
func (s *Server) Lookup(name string) (*Service, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	svc, ok := s.services[name]
	return svc, ok
}

// Names lists deployed services, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.services))
	for n := range s.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BasePath reports the URL prefix services live under.
func (s *Server) BasePath() string { return basePath }

const basePath = "/services/"

// ServiceName reads which service a request path addresses: the segment
// after "/services/". It is the one reading — the container's, the fleet
// gateway's router's and the tenancy guard's — so a name a policy rule
// denies cannot be reached under another spelling of it. rest is what
// follows the name's slash; the container serves a service only where it
// is empty ("/services/X" and "/services/X/"). ok is false off the prefix.
func ServiceName(path string) (name, rest string, ok bool) {
	after, ok := strings.CutPrefix(path, basePath)
	if !ok {
		return "", "", false
	}
	name, rest, _ = strings.Cut(after, "/")
	return name, rest, true
}

// Stats snapshots every deployed service's counters, sorted by name.
func (s *Server) Stats() []ServiceStats {
	s.mu.RLock()
	services := make([]*Service, 0, len(s.services))
	for _, svc := range s.services {
		services = append(services, svc)
	}
	s.mu.RUnlock()
	out := make([]ServiceStats, 0, len(services))
	for _, svc := range services {
		out = append(out, svc.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, rest, ok := ServiceName(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if name == "" && rest == "" {
		s.serveIndex(w)
		return
	}
	svc, ok := s.Lookup(name)
	if !ok || rest != "" {
		if rest != "" {
			name = strings.TrimSuffix(name+"/"+rest, "/")
		}
		s.fault(w, http.StatusNotFound, &Fault{Code: FaultClient, String: "no such service: " + name})
		return
	}
	switch r.Method {
	case http.MethodGet:
		if _, wantWSDL := r.URL.Query()["wsdl"]; wantWSDL {
			doc, err := wsdl.Generate(&svc.Def)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			w.Write(doc)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%s: %s\nAppend ?wsdl for the service description.\n", svc.Def.Name, svc.Def.Doc)
	case http.MethodPost:
		s.invoke(w, r, svc)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) serveIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, n := range s.Names() {
		fmt.Fprintln(w, n)
	}
}

// statusWriter observes the response status for monitoring counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) invoke(w http.ResponseWriter, r *http.Request, svc *Service) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	w = sw
	defer func() { svc.count(sw.status >= 400) }()

	// Container overhead per request (Fig. 8's CPU commentary).
	s.probe.Burn(s.cost.RequestHandling)

	// One buffer of the declared length; a request that declares more
	// than the limit is refused before any of its body is read.
	body, err := sizedio.ReadAll(r.Body, r.ContentLength, MaxRequestBytes)
	if errors.Is(err, sizedio.ErrTooLarge) {
		s.fault(w, http.StatusRequestEntityTooLarge, &Fault{Code: FaultClient, String: "request too large"})
		return
	}
	if err != nil {
		s.fault(w, http.StatusBadRequest, &Fault{Code: FaultClient, String: "read body: " + err.Error()})
		return
	}
	msg, err := Decode(body)
	if err != nil {
		s.fault(w, http.StatusBadRequest, &Fault{Code: FaultClient, String: err.Error()})
		return
	}
	op := svc.Def.Operation(msg.Operation)
	if op == nil {
		s.fault(w, http.StatusBadRequest, &Fault{
			Code:   FaultClient,
			String: fmt.Sprintf("service %s has no operation %q", svc.Def.Name, msg.Operation),
		})
		return
	}
	args := msg.ParamMap()
	for _, p := range op.Params {
		v, ok := args[p.Name]
		if !ok {
			s.fault(w, http.StatusBadRequest, &Fault{
				Code:   FaultClient,
				String: fmt.Sprintf("missing parameter %q for %s", p.Name, op.Name),
			})
			return
		}
		if err := wsdl.CheckValue(p.Type, v); err != nil {
			s.fault(w, http.StatusBadRequest, &Fault{
				Code:   FaultClient,
				String: fmt.Sprintf("parameter %q: %v", p.Name, err),
			})
			return
		}
	}
	h := svc.handlers[op.Name]
	if h == nil {
		s.fault(w, http.StatusInternalServerError, &Fault{
			Code:   FaultServer,
			String: fmt.Sprintf("operation %q deployed without handler", op.Name),
		})
		return
	}
	result, err := h(&Request{
		Msg: msg, Args: args, RemoteAddr: r.RemoteAddr, Service: svc, Op: op,
		Trace: r.Header.Get(trace.Header),
	})
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) {
			f = &Fault{Code: FaultServer, String: err.Error()}
		}
		s.fault(w, http.StatusInternalServerError, f)
		return
	}
	// The reply goes from the build buffer to the connection: Write
	// copies what it is given, so the buffer is free once it returns.
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	ret := [1]Param{{Name: "return", Value: result}}
	writeEnvelope(buf, nil, svc.Def.Namespace, msg.Operation, "Response", ret[:])
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Write(buf.Bytes())
}

func (s *Server) fault(w http.ResponseWriter, status int, f *Fault) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	writeFault(buf, f)
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
