// Package gridenv assembles a complete simulated production Grid on
// loopback TCP or an in-process netsim.Net: certificate authority,
// MyProxy credential repository, GRAM gatekeeper, and one GridFTP server
// per site. Tests, examples and the figure experiments all build their
// TeraGrid stand-in through this package instead of wiring a dozen
// servers by hand.
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
	"repro/internal/hop"
	"repro/internal/myproxy"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/xsec"
)

// caValidity is how long the grid's CA certificate is valid.
const caValidity = 10 * 365 * 24 * time.Hour

// Options configures Start.
type Options struct {
	// Sites defaults to gridsim.TeraGrid's machine file.
	Sites []gridsim.SiteConfig
	// Profile shapes the grid servers' outbound (server→client) traffic,
	// over Net; nil leaves it unshaped. Client→server shaping belongs to
	// the caller's dialer.
	Profile *netsim.Profile
	// Trace, when non-nil, turns on distributed tracing: every grid
	// service (GRAM, per-site GridFTP, MyProxy, the simulator's job
	// lifecycle) records spans into this shared collector. Hand the same
	// collector to the appliance so one invocation assembles into a
	// single cross-service tree.
	Trace *trace.Collector
	// Net, when non-nil, is the in-process network every server listens
	// on and every grid-side client dials; nil means loopback TCP.
	Net *netsim.Net
}

// Env is a running grid environment. Close shuts every listener down.
type Env struct {
	CA    *xsec.CA
	Trust *xsec.TrustStore
	Grid  *gridsim.Grid

	// Endpoints for the Cyberaide agent.
	GramURL     string
	MyProxyAddr string
	FTPURLs     map[string]string

	net        *netsim.Net
	myproxySrv *myproxy.Server
	httpSrvs   []*http.Server
	listeners  []net.Listener
}

// Start boots the environment.
func Start(opts Options) (*Env, error) {
	ca, err := xsec.NewCA("ReproGridCA", time.Now(), caValidity)
	if err != nil {
		return nil, err
	}
	trust := xsec.NewTrustStore(ca.Cert)

	var grid *gridsim.Grid
	if len(opts.Sites) == 0 {
		grid, err = gridsim.TeraGrid()
	} else {
		grid, err = gridsim.New(opts.Sites...)
	}
	if err != nil {
		return nil, err
	}

	env := &Env{
		CA:      ca,
		Trust:   trust,
		Grid:    grid,
		FTPURLs: make(map[string]string),
		net:     opts.Net,
	}

	listen := func() (net.Listener, error) {
		var ln net.Listener
		if opts.Net != nil {
			ln = opts.Net.Listen()
		} else if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
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
		grid.SetTracer(trace.NewTracer("gridsim", nil, opts.Trace))
	}
	gk := gram.NewServer(grid, trust)
	if opts.Trace != nil {
		gk.SetTracer(trace.NewTracer("gram", nil, opts.Trace))
	}
	if env.GramURL, err = serveHTTP(gk); err != nil {
		return nil, err
	}
	// One GridFTP server per site. Third-party transfers (one server
	// pulling from another) must cross the same shaped links as any other
	// grid traffic, so the servers' outbound fetches dial through the
	// profile too.
	var fetch http.RoundTripper
	switch {
	case opts.Profile != nil:
		fetch = hop.NewTransport((&netsim.Dialer{Profile: opts.Profile, Net: opts.Net}).DialContext)
	case opts.Net != nil:
		fetch = hop.NewTransport(opts.Net.DialContext)
	}
	for _, name := range grid.SiteNames() {
		site, err := grid.Site(name)
		if err != nil {
			env.Close()
			return nil, err
		}
		ftp := gridftp.NewServer(site.Store(), trust, fetch)
		if opts.Trace != nil {
			ftp.SetTracer(trace.NewTracer("gridftp", nil, opts.Trace), name)
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
	env.myproxySrv = myproxy.NewServer()
	if opts.Trace != nil {
		env.myproxySrv.SetTracer(trace.NewTracer("myproxy", nil, opts.Trace))
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
	cred, err := e.CA.IssueUser(cn, time.Now(), validity)
	if err != nil {
		return nil, err
	}
	mp := &myproxy.Client{Addr: e.MyProxyAddr}
	if e.net != nil {
		mp.Dial = e.net.DialContext
	}
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

// Close stops every server, and drops the connections hop's shared
// transport holds idle: nothing watches a pooled connection, so a later
// server on a reused port would be sent a request over one whose peer is
// gone, and a PUT or POST that meets it fails.
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
	hop.Shared().CloseIdleConnections()
}
