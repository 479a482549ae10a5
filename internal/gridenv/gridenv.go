// Package gridenv assembles a complete simulated production Grid on
// loopback TCP: certificate authority, MyProxy credential repository,
// GRAM gatekeeper, and one GridFTP server per site. Tests, examples and
// the figure experiments all build their TeraGrid stand-in through this
// package instead of wiring a dozen servers by hand.
package gridenv

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/cyberaide"
	"repro/internal/gram"
	"repro/internal/gridftp"
	"repro/internal/gridsim"
	"repro/internal/myproxy"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/xsec"
)

// Options configures Start.
type Options struct {
	// Clock drives the grid; nil means real time.
	Clock vtime.Clock
	// Sites defaults to gridsim.TeraGrid's machine file.
	Sites []gridsim.SiteConfig
	// Profile shapes the grid servers' outbound (server→client) traffic;
	// nil leaves it unshaped. Client→server shaping belongs to the
	// caller's dialer.
	Profile *netsim.Profile
	// CAValidity defaults to ten years.
	CAValidity time.Duration
	// Trace, when non-nil, turns on distributed tracing: every grid
	// service (GRAM, per-site GridFTP, MyProxy, the simulator's job
	// lifecycle) records spans into this shared collector. Hand the same
	// collector to the appliance so one invocation assembles into a
	// single cross-service tree.
	Trace *trace.Collector
}

// Env is a running grid environment. Close shuts every listener down.
type Env struct {
	Clock vtime.Clock
	CA    *xsec.CA
	Trust *xsec.TrustStore
	Grid  *gridsim.Grid
	// Gatekeeper is the GRAM server behind GramURL; time-dilated rigs
	// tune its event-stream heartbeat through it.
	Gatekeeper *gram.Server

	// Endpoints for the Cyberaide agent.
	GramURL     string
	MyProxyAddr string
	FTPURLs     map[string]string

	myproxySrv *myproxy.Server
	httpSrvs   []*http.Server
	listeners  []net.Listener
}

// Start boots the environment.
func Start(opts Options) (*Env, error) {
	clock := opts.Clock
	if clock == nil {
		clock = vtime.Real{}
	}
	validity := opts.CAValidity
	if validity <= 0 {
		validity = 10 * 365 * 24 * time.Hour
	}
	ca, err := xsec.NewCA("ReproGridCA", clock.Now(), validity)
	if err != nil {
		return nil, err
	}
	trust := xsec.NewTrustStore(ca.Cert)

	var grid *gridsim.Grid
	if len(opts.Sites) == 0 {
		grid, err = gridsim.TeraGrid(clock)
	} else {
		grid, err = gridsim.New(clock, opts.Sites...)
	}
	if err != nil {
		return nil, err
	}

	env := &Env{
		Clock:   clock,
		CA:      ca,
		Trust:   trust,
		Grid:    grid,
		FTPURLs: make(map[string]string),
	}

	listen := func() (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			env.Close()
			return nil, err
		}
		env.listeners = append(env.listeners, ln)
		if opts.Profile != nil {
			return netsim.NewListener(ln, opts.Profile, nil), nil
		}
		return ln, nil
	}
	serveHTTP := func(h http.Handler) (string, error) {
		ln, err := listen()
		if err != nil {
			return "", err
		}
		srv := netsim.NewHTTPServer(h)
		env.httpSrvs = append(env.httpSrvs, srv)
		go srv.Serve(ln)
		return "http://" + ln.Addr().String(), nil
	}

	// Gatekeeper.
	if opts.Trace != nil {
		grid.SetTracer(trace.NewTracer("gridsim", clock, opts.Trace))
	}
	gk := gram.NewServer(grid, trust, clock)
	env.Gatekeeper = gk
	if opts.Trace != nil {
		gk.SetTracer(trace.NewTracer("gram", clock, opts.Trace))
	}
	if env.GramURL, err = serveHTTP(gk); err != nil {
		return nil, err
	}
	// One GridFTP server per site. Third-party transfers (one server
	// pulling from another) must cross the same shaped links as any other
	// grid traffic, so the servers' outbound fetch client dials through
	// the profile too.
	var fetchClient *http.Client
	if opts.Profile != nil {
		dialer := &netsim.Dialer{Profile: opts.Profile}
		fetchClient = &http.Client{Transport: &http.Transport{DialContext: dialer.DialContext}}
	}
	for _, name := range grid.SiteNames() {
		site, err := grid.Site(name)
		if err != nil {
			env.Close()
			return nil, err
		}
		ftp := gridftp.NewServer(site.Store(), trust, clock, fetchClient)
		if opts.Trace != nil {
			ftp.SetTracer(trace.NewTracer("gridftp", clock, opts.Trace), name)
		}
		url, err := serveHTTP(ftp)
		if err != nil {
			return nil, err
		}
		env.FTPURLs[name] = url
	}
	// MyProxy.
	mpLn, err := listen()
	if err != nil {
		return nil, err
	}
	env.myproxySrv = myproxy.NewServer(clock)
	if opts.Trace != nil {
		env.myproxySrv.SetTracer(trace.NewTracer("myproxy", clock, opts.Trace))
	}
	go env.myproxySrv.Serve(mpLn)
	env.MyProxyAddr = mpLn.Addr().String()
	return env, nil
}

// Endpoints packages the environment's access points for an agent.
func (e *Env) Endpoints() cyberaide.Endpoints {
	return cyberaide.Endpoints{
		GramURL:     e.GramURL,
		MyProxyAddr: e.MyProxyAddr,
		FTPURLs:     e.FTPURLs,
	}
}

// AddUser issues a certificate for cn, stores a delegated credential in
// MyProxy under (cn, passphrase), and returns the user credential.
func (e *Env) AddUser(cn, passphrase string, validity time.Duration) (*xsec.Credential, error) {
	if validity <= 0 {
		validity = 30 * 24 * time.Hour
	}
	cred, err := e.CA.IssueUser(cn, e.Clock.Now(), validity)
	if err != nil {
		return nil, err
	}
	mp := &myproxy.Client{Addr: e.MyProxyAddr}
	if err := mp.Put(cn, passphrase, cred); err != nil {
		return nil, fmt.Errorf("gridenv: store credential: %w", err)
	}
	return cred, nil
}

// StageEverywhere puts a file into every site's store for owner —
// convenient for tests that bypass GridFTP.
func (e *Env) StageEverywhere(owner, name string, data []byte) error {
	for _, siteName := range e.Grid.SiteNames() {
		site, err := e.Grid.Site(siteName)
		if err != nil {
			return err
		}
		if err := site.Store().Put(owner, name, data); err != nil {
			return err
		}
	}
	return nil
}

// Close stops every server.
func (e *Env) Close() {
	for _, srv := range e.httpSrvs {
		srv.Close()
	}
	if e.myproxySrv != nil {
		e.myproxySrv.Close()
	}
	for _, ln := range e.listeners {
		ln.Close()
	}
}
