// Package core implements Cyberaide onServe, the paper's contribution: a
// lightweight middleware that realises the SaaS model on production Grids
// by translating Web-service invocations into the Job-Submission-
// Execution model. It accepts user executables, stores them in the blob
// database, synthesises and deploys one SOAP service per executable,
// publishes it in the UDDI registry, and — on invocation — retrieves the
// file, authenticates through the Cyberaide agent, stages the executable
// to a Grid site, generates a job description, submits it, and polls the
// output tentatively (the paper's workaround for missing job callbacks).
package core

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/blobdb"
	"repro/internal/errcode"
	"repro/internal/gram"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// Defaults.
const (
	// DefaultPollInterval is the tentative output polling cadence; the
	// paper's figures show output written to disk "in a relative constant
	// interval" of roughly three sample buckets.
	DefaultPollInterval = 9 * time.Second
	// DefaultInvocationTimeout is the watchdog limit per invocation.
	DefaultInvocationTimeout = 2 * time.Hour
	// ExecutablesTable is the blobdb table holding uploads.
	ExecutablesTable = "executables"
	// DefaultInvocationRetention is how many terminal invocations stay
	// resolvable by ticket before the oldest are pruned (their state
	// tallies are retained for Monitoring).
	DefaultInvocationRetention = 4096
)

// Errors.
var (
	ErrBadName       = errors.New("onserve: invalid service name")
	ErrNoSuchService = errors.New("onserve: no such service")
	ErrNoSuchUser    = errors.New("onserve: user has no grid credentials registered")
	ErrNoTicket      = errors.New("onserve: no such invocation ticket")
	ErrBadProgram    = errors.New("onserve: uploaded executable is not a valid gsh program")
	ErrNameTaken     = errors.New("onserve: service name taken")
)

// causes is the one table both doors name an error by: the JSON door
// answers with the row's status and code, the SOAP door with a fault that
// carries the code. The first row whose sentinel the error wraps decides;
// an error no row names is the appliance's own failure, or the grid's.
var causes = []struct {
	err    error
	status int
	code   string
}{
	{ErrNoSuchService, http.StatusNotFound, errcode.NotFound},
	{ErrNoTicket, http.StatusNotFound, errcode.NotFound},
	{gram.ErrNoSuchFile, http.StatusNotFound, errcode.NoSuchFile},
	{ErrBadName, http.StatusBadRequest, errcode.BadRequest},
	{ErrBadProgram, http.StatusBadRequest, errcode.BadRequest},
	{ErrNoSuchUser, http.StatusBadRequest, errcode.BadRequest},
	{ErrNameTaken, http.StatusConflict, errcode.NameTaken},
	{tenant.ErrUnauthorized, http.StatusUnauthorized, errcode.Unauthorized},
	{tenant.ErrForbidden, http.StatusForbidden, errcode.Forbidden},
	{tenant.ErrRateLimited, http.StatusTooManyRequests, errcode.RateLimited},
	{tenant.ErrSaturated, http.StatusTooManyRequests, errcode.QuotaExceeded},
}

// Cause is the status and the code both doors answer err with (causes),
// 500 internal for an error no row names.
func Cause(err error) (status int, code string) {
	for _, c := range causes {
		if errors.Is(err, c.err) {
			return c.status, c.code
		}
	}
	return http.StatusInternalServerError, errcode.Internal
}

// UserAuth holds the MyProxy logon data onServe uses to act for a portal
// user.
type UserAuth struct {
	MyProxyUser string
	Passphrase  string
}

// OnServe is the middleware instance.
type OnServe struct {
	cfg   Config
	parts Parts
	steps // the pipeline's strategies, resolved from cfg in New
	// closed latches in Close: the collectors' stream workers and
	// pollers return when they next wake instead of going on.
	closed    chan struct{}
	closeOnce sync.Once
	// retention caps the terminal invocations kept in the ticket map
	// (DefaultInvocationRetention); tests shrink it.
	retention int
	// The counters the *Stats methods snapshot.
	collector metrics.Block[CollectorStats] // output collection, either collector
	push      metrics.Block[EventStats]     // event streams
	submit    metrics.Block[SubmitStats]    // uploads, submit RPCs, stats fetches
	chunked   metrics.Block[StageStats]     // the chunked staging data plane
	placement metrics.Block[PlacementStats] // data-aware placement

	mu          sync.Mutex
	users       map[string]UserAuth    // portal user -> myproxy logon
	invocations map[string]*Invocation // ticket -> invocation
	// claimed holds the service names an upload is storing, deploying
	// and publishing.
	claimed map[string]bool
	seq     int
	// termOrder tracks terminal tickets oldest-first for pruning;
	// termTallies retains per-state counts of pruned invocations so
	// Monitoring stays correct.
	termOrder   []string
	termTallies map[InvState]int
}

// New builds an OnServe configured by cfg over the components in parts.
func New(cfg Config, parts Parts) (*OnServe, error) {
	if parts.DB == nil || parts.Container == nil || parts.Registry == nil || parts.Agent == nil {
		return nil, errors.New("onserve: DB, Container, Registry and Agent are required")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.InvocationTimeout <= 0 {
		cfg.InvocationTimeout = DefaultInvocationTimeout
	}
	o := &OnServe{
		cfg:         cfg,
		parts:       parts,
		closed:      make(chan struct{}),
		retention:   DefaultInvocationRetention,
		users:       make(map[string]UserAuth),
		invocations: make(map[string]*Invocation),
		claimed:     make(map[string]bool),
		termTallies: make(map[InvState]int),
	}
	var err error
	if o.steps, err = newSteps(cfg, o); err != nil {
		return nil, err
	}
	return o, nil
}

// steps are the pipeline's strategies, one value per step (DESIGN.md §6
// tabulates them).
type steps struct {
	spillUpload    func(size int)             // store: the paper's temporary spill, or none
	auth           authenticator              // authenticate
	stats          siteStats                  // place: statistics per call, or cached
	poss           *possession                // place: order by load (nil), or data-aware
	wire           wire                       // stage: one PUT, or chunks
	stage          stager                     // stage: upload each time, or a staging cache
	stagingFlights flights[siteKey, struct{}] // stage: nil, or coalescing
	collect        collector                  // collect: tentative poller, or push
}

// newSteps resolves cfg into the strategies for o: the one function that
// reads a strategy knob. The knobs that need the chunk store (the
// possession oracle, the stored gzip's wire) are refused without it.
func newSteps(cfg Config, o *OnServe) (steps, error) {
	if !cfg.ChunkedStaging && (cfg.DataAwarePlacement || cfg.WireCompression) {
		return steps{}, errors.New("onserve: DataAwarePlacement and WireCompression require ChunkedStaging")
	}
	probe := cfg.Probe
	s := steps{
		spillUpload: func(n int) { probe.DiskWrite(n); probe.DiskRead(n) },
		auth:        logonPerCall{o},
		stats:       statsPerCall{o},
		wire:        putWire{o},
		stage:       uploadEach{o, &records{}},
		collect:     tentativePoller{o},
	}
	if cfg.DirectDBWrite {
		s.spillUpload = func(int) {}
	}
	if cfg.SessionCache {
		s.auth = &sessionCache{logonPerCall: logonPerCall{o}, sessions: make(map[string]*ownerSession)}
	}
	if cfg.StatsTTL > 0 {
		s.stats = &statsCache{statsPerCall: statsPerCall{o}, ttl: cfg.StatsTTL, flights: make(flights[struct{}, []gridsim.SiteStats])}
	}
	if cfg.ChunkedStaging {
		chunks := &chunkWire{o: o, gzip: cfg.WireCompression}
		s.wire = chunks
		if cfg.DataAwarePlacement {
			s.poss = &possession{o: o, wire: chunks, ttl: placementProbeTTL,
				cache: make(map[siteKey]possEntry), flights: make(flights[siteKey, possEntry])}
		}
	}
	if cfg.StagingCache {
		s.stage = &stagingCache{uploadEach{o, &records{sites: make(map[string]map[string]string)}}}
	}
	if cfg.CoalesceStaging {
		s.stagingFlights = make(flights[siteKey, struct{}])
	}
	if cfg.PushEvents {
		s.collect = &eventCollector{o: o, workers: make(map[string]*eventWorker)}
	}
	return s, nil
}

// Close ends the collection step: every stream worker closes its stream,
// and the workers, pollers and final-fetch retries return when they next
// wake, so nothing of the appliance reaches the grid after it. Each
// invocation they still held ends KILLED, its watchdog stopped and its
// grid job left as it is. Close is idempotent.
func (o *OnServe) Close() { o.closeOnce.Do(func() { close(o.closed) }) }

// pause sleeps d for a collector; false means Close came meanwhile, and
// the collector returns.
func (o *OnServe) pause(d time.Duration) bool {
	time.Sleep(d)
	return !o.isClosed()
}

func (o *OnServe) isClosed() bool {
	select {
	case <-o.closed:
		return true
	default:
		return false
	}
}

// Tracer returns the configured tracer (nil when tracing is off).
func (o *OnServe) Tracer() *trace.Tracer { return o.parts.Tracing }

// InvocationTrace returns every retained span of the invocation's trace,
// sorted by start time. Unknown tickets error; an untraced invocation
// (tracing off, or spans already evicted from the ring) returns an empty
// slice.
func (o *OnServe) InvocationTrace(ticket string) ([]trace.SpanData, error) {
	inv, err := o.Invocation(ticket)
	if err != nil {
		return nil, err
	}
	id := inv.TraceID()
	col := o.parts.Tracing.Collector()
	if id == "" || col == nil {
		return nil, nil
	}
	return col.Trace(id), nil
}

// RegisterUser records the MyProxy logon onServe performs when executing
// on behalf of user.
func (o *OnServe) RegisterUser(user string, auth UserAuth) {
	o.mu.Lock()
	o.users[user] = auth
	o.mu.Unlock()
}

func (o *OnServe) userAuth(user string) (UserAuth, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	auth, ok := o.users[user]
	if !ok {
		return UserAuth{}, fmt.Errorf("%w: %q", ErrNoSuchUser, user)
	}
	return auth, nil
}

// ExecutableInfo describes one uploaded executable / generated service.
type ExecutableInfo struct {
	ServiceName string          `json:"service_name"`
	FileName    string          `json:"file_name"`
	Description string          `json:"description"`
	Owner       string          `json:"owner"`
	Params      []wsdl.ParamDef `json:"params"`
	// StageIn lists input files every invocation's job declares; the
	// owner stages them to the Grid out of band (agent or shell).
	StageIn    []string  `json:"stage_in,omitempty"`
	UploadedAt time.Time `json:"uploaded_at"`
	SizeBytes  int       `json:"size_bytes"`
	WSDLURL    string    `json:"wsdl_url"`
	Endpoint   string    `json:"endpoint"`
}

// ServiceNameFor derives the generated service's name from the uploaded
// file name, mirroring the paper's ant build which "uses a Web service
// template file and modifies its name": "montecarlo.gsh" becomes
// "MontecarloService".
func ServiceNameFor(fileName string) (string, error) {
	base := fileName
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	var sb strings.Builder
	up := true
	for _, r := range base {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if up {
				sb.WriteRune(unicode.ToUpper(r))
				up = false
			} else {
				sb.WriteRune(r)
			}
		case r == '-' || r == '_' || r == ' ' || r == '.':
			up = true
		default:
			return "", fmt.Errorf("%w: character %q in %q", ErrBadName, r, fileName)
		}
	}
	if sb.Len() == 0 {
		return "", fmt.Errorf("%w: %q", ErrBadName, fileName)
	}
	return sb.String() + "Service", nil
}

// Upload is an uploaded executable, read once: the form a database row
// keeps it in, and gsh's verdict on it. Nobody holds the raw bytes.
type Upload struct {
	stored  *blobdb.Stored
	program error // nil, or why the file is not a program the Grid can run
}

// RawSize is the length of the file as it was uploaded.
func (u *Upload) RawSize() int { return u.stored.RawSize }

// ReadUpload reads an uploaded executable from r in one pass: each piece
// goes to a gsh.Scanner, which keeps its statement lines, and on into
// blobdb.ReadStored, which hashes and deflates it. declared is the length
// announced for r, or for a body r is most of; negative means none. A file
// that is not a program is still an Upload, refused by
// UploadAndGenerateFrom in its turn — after user, name and parameters —
// except that the first byte past gsh.MaxProgramBytes ends the read with
// ErrBadProgram.
func ReadUpload(r io.Reader, declared int64) (*Upload, error) {
	return readUpload(r, declared, gsh.MaxProgramBytes)
}

func readUpload(r io.Reader, declared, limit int64) (*Upload, error) {
	var scan gsh.Scanner
	stored, err := blobdb.ReadStored(io.TeeReader(r, &scan), min(declared, limit), limit)
	if errors.Is(err, blobdb.ErrTooLarge) || errors.Is(err, gsh.ErrTooLarge) {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, gsh.ErrTooLarge)
	} else if err != nil {
		return nil, fmt.Errorf("onserve: read upload: %w", err)
	}
	_, err = scan.Program()
	return &Upload{stored: stored, program: err}, nil
}

// UploadAndGenerate is Use Scenario A (paper §VII-A): store the uploaded
// executable in the database, build a Web service linked to it, deploy
// the service, and publish it in the UDDI registry. It returns the
// published record. This is UploadAndGenerateFrom for a file held whole.
func (o *OnServe) UploadAndGenerate(user, fileName, description string, params []wsdl.ParamDef, content []byte) (*uddi.Record, error) {
	file, err := ReadUpload(bytes.NewReader(content), int64(len(content)))
	if err != nil {
		return nil, err
	}
	return o.UploadAndGenerateFrom(user, fileName, description, params, file, trace.SpanContext{})
}

// UploadAndGenerateFrom is UploadAndGenerate of a file ReadUpload read,
// under a caller trace context: it records one "upload" span (a new root
// trace when the parent is invalid, e.g. no X-Grid-Trace header came).
func (o *OnServe) UploadAndGenerateFrom(user, fileName, description string, params []wsdl.ParamDef, file *Upload, parent trace.SpanContext) (*uddi.Record, error) {
	sp := o.parts.Tracing.StartSpan("upload", parent)
	sp.Set("user", user)
	sp.Set("file", fileName)
	sp.SetInt("bytes", int64(file.RawSize()))
	sp.SetInt("stored_bytes", int64(len(file.stored.Gzip)))
	rec, err := o.uploadAndGenerate(user, fileName, description, params, file)
	if err != nil {
		sp.Error(err.Error())
	} else {
		sp.Set("service", rec.Name)
	}
	sp.End()
	return rec, err
}

func (o *OnServe) uploadAndGenerate(user, fileName, description string, params []wsdl.ParamDef, file *Upload) (*uddi.Record, error) {
	if _, err := o.userAuth(user); err != nil {
		return nil, err
	}
	serviceName, err := ServiceNameFor(fileName)
	if err != nil {
		return nil, err
	}
	for _, p := range params {
		if p.Name == "" || !wsdl.ValidType(p.Type) {
			return nil, fmt.Errorf("%w: parameter %q type %q", ErrBadName, p.Name, p.Type)
		}
	}
	// The uploaded file must be an executable the Grid can actually run.
	if file.program != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, file.program)
	}

	if err := o.claim(serviceName); err != nil {
		return nil, err
	}
	defer o.release(serviceName)

	// Storage (paper §VII-A "Storage"). The stock implementation spills
	// the upload to a temporary file and then inserts it into the
	// database — "there are at least two write operations and one read
	// operation necessary just to store one file" (§VIII-D3). These are
	// the two disk-write peaks of Fig. 8.
	o.spillUpload(file.RawSize())
	paramsJSON, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	meta := map[string]string{
		"owner":       user,
		"description": description,
		"file_name":   fileName,
		"params":      string(paramsJSON),
	}
	tab := o.parts.DB.Table(ExecutablesTable)
	if err := tab.PutStored(serviceName, meta, file.stored); err != nil {
		return nil, fmt.Errorf("onserve: store executable: %w", err)
	}

	// Service build (paper §VII-A "Service build"): the ant-build stand-in
	// instantiates the service template — a CPU burst on the appliance.
	o.cfg.Probe.ServiceBuild()
	svc := o.buildService(serviceName, description, params)
	if err := o.parts.Container.Deploy(svc); err != nil {
		tab.Delete(serviceName)
		return nil, fmt.Errorf("onserve: deploy %s: %w", serviceName, err)
	}

	// Publishing (paper §VII-A "Publishing").
	endpoint := o.parts.BaseURL + o.parts.Container.BasePath() + serviceName
	rec := uddi.Record{
		Name:        serviceName,
		Description: description,
		WSDLURL:     endpoint + "?wsdl",
		Endpoint:    endpoint,
		Owner:       user,
	}
	key, err := o.parts.Registry.Publish(rec)
	if err != nil {
		// The claim found the name free, so the row and the service are
		// this call's own; a record published past the claim, straight
		// into the registry, is another's.
		o.parts.Container.Undeploy(serviceName)
		tab.Delete(serviceName)
		if errors.Is(err, uddi.ErrDuplicate) {
			err = fmt.Errorf("%w: %w", ErrNameTaken, err)
		}
		return nil, fmt.Errorf("onserve: publish %s: %w", serviceName, err)
	}
	published, err := o.parts.Registry.Get(key)
	if err != nil {
		return nil, err
	}
	return &published, nil
}

// claim takes name for one upload. A name is taken, whoever holds it,
// while another upload has it claimed or while a service of that name is
// stored or deployed, that is until a delete: the upload is then refused
// with ErrNameTaken before anything is stored. release gives the claim
// back.
func (o *OnServe) claim(name string) error {
	o.mu.Lock()
	busy := o.claimed[name]
	o.claimed[name] = true
	o.mu.Unlock()
	if !busy {
		_, deployed := o.parts.Container.Lookup(name)
		if !deployed && !o.parts.DB.Table(ExecutablesTable).Has(name) {
			return nil
		}
		o.release(name)
	}
	return fmt.Errorf("%w: %s", ErrNameTaken, name)
}

func (o *OnServe) release(name string) {
	o.mu.Lock()
	delete(o.claimed, name)
	o.mu.Unlock()
}

// SetStageIn declares the staged input files every invocation of the
// service requires. The owner is responsible for staging them (through
// the Cyberaide agent or shell); jobs then read them with gsh's
// read/process statements.
func (o *OnServe) SetStageIn(serviceName string, files []string) error {
	for _, f := range files {
		if f == "" || strings.ContainsAny(f, "/,") {
			return fmt.Errorf("%w: stage-in file %q", ErrBadName, f)
		}
	}
	// Metadata only: the executable is neither inflated nor re-compressed
	// to change one key.
	tab := o.parts.DB.Table(ExecutablesTable)
	rec, err := tab.Stat(serviceName)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	rec.Meta["stage_in"] = strings.Join(files, ",")
	return tab.SetMeta(serviceName, rec.Meta)
}

// RedeployAll regenerates, deploys and republishes a service for every
// executable in the database that is not already live — the boot-time
// step that makes a persistent appliance's database authoritative across
// reboots. It returns how many services were brought back.
func (o *OnServe) RedeployAll() (int, error) {
	infos, err := o.Services()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, info := range infos {
		if _, deployed := o.parts.Container.Lookup(info.ServiceName); deployed {
			continue
		}
		o.cfg.Probe.ServiceBuild()
		svc := o.buildService(info.ServiceName, info.Description, info.Params)
		if err := o.parts.Container.Deploy(svc); err != nil {
			return n, fmt.Errorf("onserve: redeploy %s: %w", info.ServiceName, err)
		}
		if _, err := o.parts.Registry.GetByName(info.ServiceName); err != nil {
			if _, err := o.parts.Registry.Publish(uddi.Record{
				Name:        info.ServiceName,
				Description: info.Description,
				WSDLURL:     info.WSDLURL,
				Endpoint:    info.Endpoint,
				Owner:       info.Owner,
			}); err != nil {
				return n, fmt.Errorf("onserve: republish %s: %w", info.ServiceName, err)
			}
		}
		n++
	}
	return n, nil
}

// DeleteService undeploys the generated service, removes its UDDI record
// and deletes the stored executable.
func (o *OnServe) DeleteService(serviceName string) error {
	if _, err := o.parts.DB.Table(ExecutablesTable).Stat(serviceName); err != nil {
		return fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	o.parts.Container.Undeploy(serviceName)
	if rec, err := o.parts.Registry.GetByName(serviceName); err == nil {
		o.parts.Registry.Delete(rec.Key)
	}
	if err := o.parts.DB.Table(ExecutablesTable).Delete(serviceName); err != nil {
		return err
	}
	o.stage.forget(serviceName)
	o.poss.forget(serviceName)
	return nil
}

// Tenancy exposes the multi-tenant control plane; nil when the
// subsystem is off, which callers treat as "admit everything".
func (o *OnServe) Tenancy() *tenant.Controller { return o.parts.Tenancy }

// Services lists the generated services, sorted by service name. The
// order is part of the API: a fleet gateway merges listings from many
// appliances, which only works if every listing is deterministic.
func (o *OnServe) Services() ([]ExecutableInfo, error) {
	tab := o.parts.DB.Table(ExecutablesTable)
	var out []ExecutableInfo
	for _, key := range tab.Keys() {
		info, err := o.ServiceInfo(key)
		if err != nil {
			if errors.Is(err, ErrNoSuchService) {
				continue // deleted concurrently
			}
			return nil, err
		}
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ServiceName < out[j].ServiceName })
	return out, nil
}

// ServiceInfo describes one generated service.
func (o *OnServe) ServiceInfo(serviceName string) (*ExecutableInfo, error) {
	rec, err := o.parts.DB.Table(ExecutablesTable).Stat(serviceName)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	var params []wsdl.ParamDef
	if s := rec.Meta["params"]; s != "" {
		if err := json.Unmarshal([]byte(s), &params); err != nil {
			return nil, fmt.Errorf("onserve: corrupt params for %s: %w", serviceName, err)
		}
	}
	var stageIn []string
	if s := rec.Meta["stage_in"]; s != "" {
		stageIn = strings.Split(s, ",")
	}
	endpoint := o.parts.BaseURL + o.parts.Container.BasePath() + serviceName
	return &ExecutableInfo{
		ServiceName: serviceName,
		FileName:    rec.Meta["file_name"],
		Description: rec.Meta["description"],
		Owner:       rec.Meta["owner"],
		Params:      params,
		StageIn:     stageIn,
		UploadedAt:  rec.StoredAt,
		SizeBytes:   rec.CompressedSize,
		WSDLURL:     endpoint + "?wsdl",
		Endpoint:    endpoint,
	}, nil
}

// ServiceDef returns the definition the container serves a generated
// service's WSDL from. It is shared: do not modify it.
func (o *OnServe) ServiceDef(serviceName string) (*wsdl.ServiceDef, error) {
	svc, deployed := o.parts.Container.Lookup(serviceName)
	if _, err := o.parts.DB.Table(ExecutablesTable).Stat(serviceName); err != nil || !deployed {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	return &svc.Def, nil
}

// newTicket writes fmt's "inv-%06d-<service>-" and twelve random hex
// digits in one allocation. The sequence leads, so tickets sort in issue
// order; the name lets a fleet route a ticket by it (TicketService).
func newTicket(seq int, service string) string {
	var rnd [6]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		panic("onserve: entropy unavailable: " + err.Error())
	}
	var buf [32]byte
	t := append(buf[:0], "inv-"...)
	for width := 100000; width > 1 && seq < width; width /= 10 {
		t = append(t, '0')
	}
	t = append(strconv.AppendInt(t, int64(seq), 10), '-')
	var hx [12]byte
	hex.Encode(hx[:], rnd[:])
	return string(t) + service + "-" + string(hx[:])
}

// TicketService reads the service name out of a ticket newTicket wrote,
// inv-<seq>-<Service>-<12 hex>; it refuses any other string.
func TicketService(ticket string) (string, bool) {
	rest, ok := strings.CutPrefix(ticket, "inv-")
	seq, rest, _ := strings.Cut(rest, "-")
	service, rnd, _ := strings.Cut(rest, "-")
	if !ok || seq == "" || strings.Trim(seq, "0123456789") != "" || service == "" ||
		len(rnd) != 12 || strings.Trim(rnd, "0123456789abcdef") != "" {
		return "", false
	}
	return service, true
}
