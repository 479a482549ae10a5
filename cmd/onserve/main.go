// Command onserve builds and boots the Cyberaide onServe virtual
// appliance against a running grid (see cmd/gridd): portal, SOAP
// container, UDDI registry, blob database and Cyberaide agent behind one
// HTTP endpoint.
//
//	onserve -endpoints grid.json -listen 127.0.0.1:8080 -user alice:secret
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/cyberaide"
	"repro/internal/gateway"
	"repro/internal/tenant"
	"repro/internal/trace"
)

type endpointsFile struct {
	GramURL     string            `json:"gram_url"`
	MyProxyAddr string            `json:"myproxy_addr"`
	FTPURLs     map[string]string `json:"ftp_urls"`
}

type userList []string

func (u *userList) String() string     { return strings.Join(*u, ",") }
func (u *userList) Set(v string) error { *u = append(*u, v); return nil }

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2) // the flag set already printed the error and usage
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "onserve:", err)
		os.Exit(1)
	}
}

type bootOptions struct {
	endpointsPath string
	listen        string
	dbDir         string
	// appliance is what -profile (and -db) resolved to; run completes it
	// with the endpoints, tracing and tenancy.
	appliance appliance.Config
	tracing   bool
	fleet     int
	tenancy   bool
	keysFile  string
	users     userList
}

// parseFlags reads the command line. The appliance's behaviour is chosen
// by -profile alone: the two supported configurations are the only ones
// the command can boot.
func parseFlags(args []string) (bootOptions, error) {
	var opts bootOptions
	var profile string
	fs := flag.NewFlagSet("onserve", flag.ContinueOnError)
	fs.StringVar(&opts.endpointsPath, "endpoints", "grid-endpoints.json", "grid endpoints file written by gridd")
	fs.StringVar(&opts.listen, "listen", "127.0.0.1:0", "address for the appliance HTTP endpoint")
	fs.StringVar(&opts.dbDir, "db", "", "database directory (empty: in-memory)")
	fs.StringVar(&profile, "profile", "paper", "appliance configuration: paper (every extension off, what the paper's figures measure) or production (every cache and batched path on; with -db, the sharded storage engine)")
	fs.BoolVar(&opts.tracing, "trace", false, "record appliance-side invocation spans (read back via /api/trace, /trace, onserve-cli trace)")
	fs.IntVar(&opts.fleet, "fleet", 0, "boot N appliances behind a consistent-hash gateway on -listen instead of one appliance (0: single appliance, stock wire behaviour)")
	fs.BoolVar(&opts.tenancy, "tenancy", false, "enforce the multi-tenant control plane: API keys, policy, rate limits, fair-share quotas and the audit log (needs -keys-file)")
	fs.StringVar(&opts.keysFile, "keys-file", "", "tenancy config JSON (owners, keys, limits, audit); see README for the schema")
	fs.Var(&opts.users, "user", "portal-user:myproxy-passphrase to register (repeatable)")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	cfg, err := profileConfig(profile, opts.dbDir)
	if err != nil {
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return opts, err
	}
	opts.appliance = cfg
	return opts, nil
}

// profileConfig maps -profile (and -db) onto the appliance configuration.
func profileConfig(profile, dbDir string) (appliance.Config, error) {
	switch profile {
	case "paper":
		cfg := appliance.Paper()
		cfg.DBDir = dbDir
		return cfg, nil
	case "production":
		return appliance.Production(dbDir), nil
	}
	return appliance.Config{}, fmt.Errorf("unknown -profile %q (want paper or production)", profile)
}

func run(opts bootOptions) error {
	raw, err := os.ReadFile(opts.endpointsPath)
	if err != nil {
		return fmt.Errorf("read endpoints (run gridd first?): %w", err)
	}
	var eps endpointsFile
	if err := json.Unmarshal(raw, &eps); err != nil {
		return fmt.Errorf("parse endpoints: %w", err)
	}

	cfg := opts.appliance
	cfg.Endpoints = cyberaide.Endpoints{
		GramURL:     eps.GramURL,
		MyProxyAddr: eps.MyProxyAddr,
		FTPURLs:     eps.FTPURLs,
	}
	if opts.tracing {
		// The grid services live in another process (gridd), so the
		// trace tree covers the appliance's side of the pipeline.
		cfg.Trace = trace.NewCollector(0, 0)
	}
	if opts.tenancy {
		if opts.keysFile == "" {
			return fmt.Errorf("-tenancy needs -keys-file")
		}
		tc, err := tenant.LoadConfig(opts.keysFile)
		if err != nil {
			return err
		}
		cfg.Tenancy = &tc
	}
	if opts.fleet > 0 {
		return runFleet(cfg, opts)
	}
	img, err := appliance.BuildImage(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("appliance image built: %s\n", strings.Join(img.Manifest, ", "))

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	app, err := img.Boot(ln)
	if err != nil {
		return err
	}
	defer app.Shutdown()

	for _, u := range opts.users {
		name, pass, ok := strings.Cut(u, ":")
		if !ok {
			return fmt.Errorf("bad -user %q, want name:passphrase", u)
		}
		app.OnServe.RegisterUser(name, core.UserAuth{MyProxyUser: name, Passphrase: pass})
		fmt.Printf("registered portal user %s\n", name)
	}

	if opts.dbDir != "" {
		n, err := app.OnServe.RedeployAll()
		if err != nil {
			return fmt.Errorf("redeploy stored services: %w", err)
		}
		if n > 0 {
			fmt.Printf("redeployed %d stored services from %s\n", n, opts.dbDir)
		}
	}

	fmt.Printf("Cyberaide onServe appliance up\n")
	fmt.Printf("  portal       %s/\n", app.BaseURL)
	fmt.Printf("  services     %s\n", app.ServicesURL())
	fmt.Printf("  UDDI         %s\n", app.RegistryURL())
	fmt.Println("press Ctrl-C to stop")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("\nshutting down")
	return nil
}

// runFleet boots opts.fleet appliances behind one consistent-hash
// gateway and serves the portal API on -listen.
func runFleet(cfg appliance.Config, opts bootOptions) error {
	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	gw, err := gateway.Boot(gateway.Config{
		Fleet:     opts.fleet,
		Appliance: cfg,
	}, ln)
	if err != nil {
		return err
	}
	defer gw.Shutdown()

	for _, u := range opts.users {
		name, pass, ok := strings.Cut(u, ":")
		if !ok {
			return fmt.Errorf("bad -user %q, want name:passphrase", u)
		}
		gw.RegisterUser(name, core.UserAuth{MyProxyUser: name, Passphrase: pass})
		fmt.Printf("registered portal user %s on all shards\n", name)
	}

	fmt.Printf("Cyberaide onServe fleet gateway up (%d appliances)\n", opts.fleet)
	fmt.Printf("  portal       %s/\n", gw.BaseURL)
	fmt.Printf("  gateway      %s/gateway/stats\n", gw.BaseURL)
	for i, app := range gw.Fleet() {
		fmt.Printf("  shard-%d      %s/\n", i, app.BaseURL)
	}
	fmt.Println("press Ctrl-C to stop")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("\nshutting down fleet")
	return nil
}
