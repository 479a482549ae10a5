// Package appliance implements the Cyberaide onServe virtual appliance:
// the on-demand-deployable access layer of the paper ("The Cyberaide
// onServe virtual appliance is deployed on demand, hosts applications as
// Web services, accepts Web service invocations, and finally ... executes
// them on production Grids"). An Image is built from a configuration
// (the rBuilder step); Boot provisions the portal, the UDDI registry, the
// blob database, the SOAP container, and the Cyberaide agent behind one
// HTTP endpoint, and Shutdown tears it down.
package appliance

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/core"
	"repro/internal/cyberaide"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
)

// Config describes an appliance image. It is core.Config: the knobs are
// declared once, in the package that reads most of them.
type Config = core.Config

// Paper is the paper's configuration: every extension off. Each
// invocation re-inflates the blob, logs on to MyProxy, re-stages the
// whole executable and is collected by its own tentative poller — what
// Figs. 6–8 measure. Given a DBDir it persists on the storage engine
// Production uses, with one shard, no group commit and no compactor.
func Paper() Config { return Config{} }

// Production is the other supported configuration: every cache and
// batched path on. A non-empty dbDir persists the database there with
// four shards, group commit and the background compactor; empty keeps
// it in memory.
func Production(dbDir string) Config {
	cfg := Config{
		SessionCache:       true,
		StatsTTL:           30 * time.Second,
		StagingCache:       true,
		DirectDBWrite:      true,
		PushEvents:         true,
		CoalesceStaging:    true,
		ChunkedStaging:     true,
		WireCompression:    true,
		DataAwarePlacement: true,
	}
	if dbDir != "" {
		cfg.DBDir = dbDir
		cfg.WALShards = 4
		cfg.GroupCommit = true
		cfg.AutoCompact = true
	}
	return cfg
}

// Image is a built appliance image: validated configuration plus the
// component manifest, ready to boot.
type Image struct {
	cfg      Config
	Manifest []string
}

// BuildImage validates cfg and returns a bootable image.
func BuildImage(cfg Config) (*Image, error) {
	if cfg.Endpoints.GramURL == "" || cfg.Endpoints.MyProxyAddr == "" {
		return nil, errors.New("appliance: grid endpoints (GRAM, MyProxy) required")
	}
	if len(cfg.Endpoints.FTPURLs) == 0 {
		return nil, errors.New("appliance: at least one GridFTP endpoint required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	return &Image{
		cfg: cfg,
		Manifest: []string{
			"cyberaide-portal",
			"uddi-registry",
			"blob-database",
			"soap-container",
			"cyberaide-agent",
			"onserve-core",
		},
	}, nil
}

// Appliance is a booted image.
type Appliance struct {
	OnServe   *core.OnServe
	Agent     *cyberaide.Agent
	Registry  *uddi.Registry
	Container *soap.Server
	DB        *blobdb.DB
	Portal    *portal.Portal

	// BaseURL is the appliance's public HTTP root.
	BaseURL string

	srv          *http.Server
	ln           net.Listener
	shutdownOnce sync.Once
}

// Boot starts the appliance on ln; a nil ln listens on an ephemeral
// loopback port. The returned appliance is serving when Boot returns.
func (img *Image) Boot(ln net.Listener) (*Appliance, error) {
	cfg := img.cfg
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("appliance: listen: %w", err)
		}
	}
	baseURL := "http://" + ln.Addr().String()
	if cfg.UserProfile != nil {
		ln = netsim.NewListener(ln, cfg.UserProfile, cfg.Probe)
	}

	dbOpts := blobdb.Options{
		Dir: cfg.DBDir, Clock: cfg.Clock, Probe: cfg.Probe, Cost: cfg.Cost,
		BlobCacheBytes: cfg.BlobCacheBytes, GroupCommit: cfg.GroupCommit,
		WALShards: cfg.WALShards, AutoCompact: cfg.AutoCompact,
	}
	if cfg.Trace != nil {
		dbOpts.Tracer = trace.NewTracer("blobdb", cfg.Clock, cfg.Trace)
	}
	db, err := blobdb.Open(dbOpts)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("appliance: open database: %w", err)
	}
	container := soap.NewServer(cfg.Probe, cfg.Cost)
	registry := uddi.NewRegistry(cfg.Clock)
	agent := cyberaide.New(cyberaide.Options{
		Endpoints:   cfg.Endpoints,
		Clock:       cfg.Clock,
		Probe:       cfg.Probe,
		Cost:        cfg.Cost,
		HTTP:        cfg.GridHTTP,
		MyProxyDial: cfg.MyProxyDial,
	})
	parts := core.Parts{DB: db, Container: container, Registry: registry, Agent: agent, BaseURL: baseURL}
	if cfg.Trace != nil {
		parts.Tracing = trace.NewTracer("onserve", cfg.Clock, cfg.Trace)
	}
	if cfg.Tenancy != nil {
		topts := tenant.Options{Clock: cfg.Clock, DB: db}
		if cfg.Trace != nil {
			topts.Tracer = trace.NewTracer("tenant", cfg.Clock, cfg.Trace)
		}
		parts.Tenancy, err = tenant.NewController(*cfg.Tenancy, topts)
		if err != nil {
			db.Close()
			ln.Close()
			return nil, fmt.Errorf("appliance: tenancy: %w", err)
		}
	}
	ons, err := core.New(cfg, parts)
	if err != nil {
		db.Close()
		ln.Close()
		return nil, err
	}

	// Deploy the built-in toolkit services: the UDDI registry and the
	// Cyberaide agent facade ("A SOAP server runs the deployed Web
	// services as well as some services related to the Cyberaide
	// toolkit").
	if err := container.Deploy(registry.SOAPService()); err != nil {
		db.Close()
		ln.Close()
		return nil, err
	}
	if err := container.Deploy(agent.SOAPService()); err != nil {
		db.Close()
		ln.Close()
		return nil, err
	}

	p := portal.New(ons, registry, cfg.Probe, cfg.Cost)
	mux := http.NewServeMux()
	var services http.Handler = container
	if parts.Tenancy != nil {
		// The SOAP container is the portal's side door: without this
		// guard a keyless caller could drive generated services (and
		// their execute operations) directly. SOAP calls authenticate
		// with the same X-Grid-Key header and pass the invoke policy;
		// the full rate/quota pipeline stays at the portal edge, which
		// is the only surface that creates invocations on behalf of
		// anonymous SOAP-era clients when tenancy is off.
		services = guardServices(parts.Tenancy, container)
	}
	mux.Handle("/services/", services)
	mux.Handle("/", p)
	srv := netsim.NewHTTPServer(mux)
	go srv.Serve(ln)

	return &Appliance{
		OnServe:   ons,
		Agent:     agent,
		Registry:  registry,
		Container: container,
		DB:        db,
		Portal:    p,
		BaseURL:   baseURL,
		srv:       srv,
		ln:        ln,
	}, nil
}

// Shutdown stops the HTTP server and closes the database. It is
// idempotent: fleet supervisors (the gateway's Kill path and its final
// Shutdown sweep) may both reach a crashed appliance.
func (a *Appliance) Shutdown() error {
	var err error
	a.shutdownOnce.Do(func() {
		a.srv.Close()
		a.ln.Close()
		err = a.DB.Close()
	})
	return err
}

// guardServices authenticates SOAP traffic against the tenant control
// plane. Reads (WSDL fetches) stay open; POSTs — SOAP calls — need a
// valid key whose policy permits invoking the addressed service.
// Errors use the portal's JSON envelope so one client error path
// covers both doors.
func guardServices(ctl *tenant.Controller, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		pr, err := ctl.Authenticate(r.Header.Get(tenant.KeyHeader), tenant.VerbInvoke)
		if err != nil {
			portal.WriteError(w, http.StatusUnauthorized, err)
			return
		}
		name, _, _ := soap.ServiceName(r.URL.Path)
		if !ctl.Allows(pr.Owner, tenant.VerbInvoke, name) {
			portal.WriteError(w, http.StatusForbidden, tenant.ErrForbidden)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ServicesURL returns the SOAP container root URL.
func (a *Appliance) ServicesURL() string { return a.BaseURL + a.Container.BasePath() }

// RegistryURL returns the UDDI registry service endpoint.
func (a *Appliance) RegistryURL() string { return a.ServicesURL() + uddi.ServiceName }
