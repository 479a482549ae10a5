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
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/blobdb"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
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
	// pollHubShards is how many shard workers the poll hub runs.
	pollHubShards = 4
)

// Errors.
var (
	ErrBadName       = errors.New("onserve: invalid service name")
	ErrNoSuchService = errors.New("onserve: no such service")
	ErrNoSuchUser    = errors.New("onserve: user has no grid credentials registered")
	ErrNoTicket      = errors.New("onserve: no such invocation ticket")
	ErrBadProgram    = errors.New("onserve: uploaded executable is not a valid gsh program")
)

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
	clock vtime.Clock
	// retention caps the terminal invocations kept in the ticket map
	// (DefaultInvocationRetention) and probeTTL is how long one
	// possession probe's answer is trusted (placementProbeTTL): fixed in
	// New, fields so that this package's tests can shrink them.
	retention int
	probeTTL  time.Duration
	// collect is the pipeline's fifth step, chosen once in New: the push
	// collector with the poll hub as its fallback rung
	// (Config.PushEvents), or the paper's tentative poller.
	collect collector
	// collector tallies the output-collection work every collector does.
	collector collectorCounters
	// push tallies the event-stream work (Config.PushEvents).
	push eventCounters
	// submit tallies the submission-path work (uploads, submit RPCs,
	// stats fetches).
	submit submitCounters
	// stage tallies the chunked staging data plane (Config.ChunkedStaging).
	stage stageCounters
	// placement tallies the data-aware placement control plane
	// (Config.DataAwarePlacement).
	placement placementCounters
	// poss is the possession probe cache data-aware placement reads.
	poss possState

	mu          sync.Mutex
	users       map[string]UserAuth    // portal user -> myproxy logon
	invocations map[string]*Invocation // ticket -> invocation
	// staged is the staging cache (Config.StagingCache; empty forever
	// without it): service -> site -> staged checksum.
	staged map[string]map[string]string
	seq    int
	// sessions caches one authenticated agent session per owner
	// (Config.SessionCache).
	sessions map[string]*ownerSession
	// stats / statsAt cache the grid-stats snapshot (Config.StatsTTL);
	// statsFlights is the in-flight refresh concurrent callers share.
	stats        []gridsim.SiteStats
	statsAt      time.Time
	statsFlights flights[[]gridsim.SiteStats]
	// stagingFlights holds in-flight staging transfers keyed
	// service|site (Config.CoalesceStaging).
	stagingFlights flights[struct{}]
	// termOrder tracks terminal tickets oldest-first for pruning;
	// termTallies retains per-state counts of pruned invocations so
	// Monitoring stays correct.
	termOrder   []string
	termTallies map[InvState]int
}

// ownerSession is one cached authenticated session.
type ownerSession struct {
	id        string
	expiresAt time.Time
}

// New builds an OnServe configured by cfg over the components in parts.
func New(cfg Config, parts Parts) (*OnServe, error) {
	if parts.DB == nil || parts.Container == nil || parts.Registry == nil || parts.Agent == nil {
		return nil, errors.New("onserve: DB, Container, Registry and Agent are required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.InvocationTimeout <= 0 {
		cfg.InvocationTimeout = DefaultInvocationTimeout
	}
	if cfg.ProxyLifetime <= 0 {
		cfg.ProxyLifetime = 12 * time.Hour
	}
	o := &OnServe{
		cfg:            cfg,
		parts:          parts,
		clock:          cfg.Clock,
		retention:      DefaultInvocationRetention,
		probeTTL:       placementProbeTTL,
		users:          make(map[string]UserAuth),
		invocations:    make(map[string]*Invocation),
		staged:         make(map[string]map[string]string),
		sessions:       make(map[string]*ownerSession),
		termTallies:    make(map[InvState]int),
		statsFlights:   make(flights[[]gridsim.SiteStats]),
		stagingFlights: make(flights[struct{}]),
	}
	o.poss.cache = make(map[string]possEntry)
	o.poss.flights = make(flights[possEntry])
	if cfg.PushEvents {
		// The hub is push's fallback rung for an absent or dead event channel.
		o.collect = &eventCollector{o: o, hub: newPollHub(o, pollHubShards), workers: make(map[string]*eventWorker)}
	} else {
		o.collect = tentativePoller{o}
	}
	return o, nil
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

	// Storage (paper §VII-A "Storage"). The stock implementation spills
	// the upload to a temporary file and then inserts it into the
	// database — "there are at least two write operations and one read
	// operation necessary just to store one file" (§VIII-D3). These are
	// the two disk-write peaks of Fig. 8.
	if !o.cfg.DirectDBWrite {
		o.cfg.Probe.DiskWrite(file.RawSize()) // temp spill
		o.cfg.Probe.DiskRead(file.RawSize())  // read back for the insert
	}
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
	if err := o.parts.DB.Table(ExecutablesTable).PutStored(serviceName, meta, file.stored); err != nil {
		return nil, fmt.Errorf("onserve: store executable: %w", err)
	}

	// Service build (paper §VII-A "Service build"): the ant-build stand-in
	// instantiates the service template — a CPU burst on the appliance.
	o.cfg.Probe.Burn(o.cfg.Cost.ServiceBuild)
	svc := o.buildService(serviceName, description, params)
	if err := o.parts.Container.Deploy(svc); err != nil {
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
		o.parts.Container.Undeploy(serviceName)
		return nil, fmt.Errorf("onserve: publish %s: %w", serviceName, err)
	}
	published, err := o.parts.Registry.Get(key)
	if err != nil {
		return nil, err
	}
	return &published, nil
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
		o.cfg.Probe.Burn(o.cfg.Cost.ServiceBuild)
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
	o.mu.Lock()
	delete(o.staged, serviceName)
	o.mu.Unlock()
	o.forgetPossession(serviceName)
	return nil
}

// Tenancy exposes the multi-tenant control plane; nil when the
// subsystem is off, which callers treat as "admit everything".
func (o *OnServe) Tenancy() *tenant.Controller { return o.parts.Tenancy }

// SetTenancy installs the controller after construction. Call it before
// serving traffic — the admission path reads the field without a lock.
func (o *OnServe) SetTenancy(ctl *tenant.Controller) { o.parts.Tenancy = ctl }

// Services lists the generated services, sorted by service name. The
// order is part of the API: fleet gateways merge listings from many
// appliances and diff replicated registry views against authoritative
// ones, which only works if every listing is deterministic.
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

func newTicket(seq int) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("onserve: entropy unavailable: " + err.Error())
	}
	return fmt.Sprintf("inv-%06d-%s", seq, hex.EncodeToString(b[:]))
}
