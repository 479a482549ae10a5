package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/appliance"
	"repro/internal/blobdb"
	"repro/internal/core"
	"repro/internal/cyberaide"
	"repro/internal/gateway"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// A child is this binary re-executed in one of two roles. The parent
// writes one JSON config line on the child's standard input, the child
// boots and answers with one JSON line on its standard output, then
// serves until standard input reaches EOF. Tying the child's life to
// the pipe means a parent that dies for any reason cannot leave an
// orphan behind.

// userSpec is one grid user: a MyProxy account in the grid child, a
// registered owner in the sut child.
type userSpec struct {
	Name string `json:"name"`
	Pass string `json:"pass"`
}

// gridConfig boots the fixture: a two-site grid on the real clock with
// unshaped links. Jobs are whatever the appliance submits; the
// workloads submit programs that finish at once.
type gridConfig struct {
	Users []userSpec `json:"users"`
	Trace bool       `json:"trace"`
}

// gridReady is the grid child's answer.
type gridReady struct {
	Endpoints cyberaide.Endpoints `json:"endpoints"`
	Side      string              `json:"side"`
}

// sutConfig boots the system under test: one appliance, or a gateway
// over Fleet appliances when Fleet > 0.
type sutConfig struct {
	Endpoints cyberaide.Endpoints `json:"endpoints"`
	Profile   string              `json:"profile"`
	DBDir     string              `json:"db_dir,omitempty"`
	Fleet     int                 `json:"fleet,omitempty"`
	Tenancy   *tenant.Config      `json:"tenancy,omitempty"`
	Users     []userSpec          `json:"users"`
	Trace     bool                `json:"trace"`
}

// sutReady is the sut child's answer.
type sutReady struct {
	BaseURL string `json:"base_url"`
	Side    string `json:"side"`
}

// procSnap is the /bench/snap document: cumulative counters of one
// process. The storage fields are zero in the grid child.
type procSnap struct {
	CPUMs       float64 `json:"cpu_ms"` // user + system, getrusage
	Mallocs     uint64  `json:"mallocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCPauseNs   uint64  `json:"gc_pause_ns"`
	HeapInuse   uint64  `json:"heap_inuse"`
	Goroutines  int     `json:"goroutines"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	WALWrites   int64   `json:"wal_writes"`
	WALSyncs    int64   `json:"wal_syncs"`
}

// selfSnap fills the process-level fields for the calling process.
func selfSnap() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return procSnap{
		CPUMs:      tv(ru.Utime) + tv(ru.Stime),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		GCPauseNs:  ms.PauseTotalNs,
		HeapInuse:  ms.HeapInuse,
		Goroutines: runtime.NumGoroutine(),
	}
}

// serveSide starts the benchmark-owned side endpoint on its own
// listener, so the measured servers' muxes stay untouched. dbs may be
// nil (grid child).
func serveSide(col *trace.Collector, dbs func() []*blobdb.DB) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/bench/snap", func(w http.ResponseWriter, r *http.Request) {
		s := selfSnap()
		if dbs != nil {
			for _, db := range dbs() {
				h, m, _ := db.BlobCacheStats()
				wr, sy := db.WALStats()
				s.CacheHits += h
				s.CacheMisses += m
				s.WALWrites += wr
				s.WALSyncs += sy
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s)
	})
	mux.HandleFunc("/bench/trace", func(w http.ResponseWriter, r *http.Request) {
		spans := []trace.SpanData{}
		if col != nil {
			if got := col.Trace(r.URL.Query().Get("id")); got != nil {
				spans = got
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(spans)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), srv, nil
}

// runChild runs one child role over the given pipes and returns when
// in reaches EOF.
func runChild(role string, in io.Reader, out io.Writer) error {
	rd := bufio.NewReader(in)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("%s: read config: %w", role, err)
	}
	var ready any
	var stop func()
	switch role {
	case "grid":
		var cfg gridConfig
		if err := json.Unmarshal(line, &cfg); err != nil {
			return fmt.Errorf("grid: config: %w", err)
		}
		ready, stop, err = bootGrid(cfg)
	case "sut":
		var cfg sutConfig
		if err := json.Unmarshal(line, &cfg); err != nil {
			return fmt.Errorf("sut: config: %w", err)
		}
		ready, stop, err = bootSUT(cfg)
	default:
		return fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		return fmt.Errorf("%s: boot: %w", role, err)
	}
	defer stop()
	if err := json.NewEncoder(out).Encode(ready); err != nil {
		return fmt.Errorf("%s: announce: %w", role, err)
	}
	// Serve until the parent closes the pipe (or dies).
	_, err = io.Copy(io.Discard, rd)
	return err
}

func newCollector(on bool) *trace.Collector {
	if !on {
		return nil
	}
	return trace.NewCollector(0, 0)
}

func bootGrid(cfg gridConfig) (any, func(), error) {
	col := newCollector(cfg.Trace)
	env, err := gridenv.Start(gridenv.Options{
		// Two sites so placement has a choice to make; 64 slots each is
		// far more than nproc callers can fill, so no job ever queues.
		Sites: []gridsim.SiteConfig{
			{Name: "ncsa-abe", Nodes: 8, CoresPerNode: 8},
			{Name: "sdsc-ds", Nodes: 8, CoresPerNode: 8},
		},
		Trace: col,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, u := range cfg.Users {
		if _, err := env.AddUser(u.Name, u.Pass, 0); err != nil {
			env.Close()
			return nil, nil, err
		}
	}
	side, srv, err := serveSide(col, nil)
	if err != nil {
		env.Close()
		return nil, nil, err
	}
	stop := func() {
		srv.Close()
		env.Close()
	}
	return gridReady{Endpoints: env.Endpoints(), Side: side}, stop, nil
}

func bootSUT(cfg sutConfig) (any, func(), error) {
	acfg, err := profileByName(cfg.Profile)
	if err != nil {
		return nil, nil, err
	}
	if cfg.DBDir != "" {
		acfg = withDiskDB(acfg, cfg.DBDir)
	}
	col := newCollector(cfg.Trace)
	acfg.Endpoints = cfg.Endpoints
	acfg.Trace = col
	acfg.Tenancy = cfg.Tenancy
	// A benchmark op never runs longer than milliseconds; a minute-long
	// watchdog turns a wedged invocation into a failed op instead of a
	// hung run.
	acfg.InvocationTimeout = time.Minute

	var (
		baseURL  string
		dbs      func() []*blobdb.DB
		register func(string, core.UserAuth)
		shutdown func() error
	)
	if cfg.Fleet > 0 {
		gw, err := gateway.Boot(gateway.Config{Fleet: cfg.Fleet, Appliance: acfg, Trace: col}, nil)
		if err != nil {
			return nil, nil, err
		}
		baseURL, register, shutdown = gw.BaseURL, gw.RegisterUser, gw.Shutdown
		dbs = func() []*blobdb.DB {
			var out []*blobdb.DB
			for _, app := range gw.Fleet() {
				if app != nil {
					out = append(out, app.DB)
				}
			}
			return out
		}
	} else {
		img, err := appliance.BuildImage(acfg)
		if err != nil {
			return nil, nil, err
		}
		app, err := img.Boot(nil)
		if err != nil {
			return nil, nil, err
		}
		baseURL, register, shutdown = app.BaseURL, app.OnServe.RegisterUser, app.Shutdown
		dbs = func() []*blobdb.DB { return []*blobdb.DB{app.DB} }
	}
	for _, u := range cfg.Users {
		register(u.Name, core.UserAuth{MyProxyUser: u.Name, Passphrase: u.Pass})
	}
	side, srv, err := serveSide(col, dbs)
	if err != nil {
		shutdown()
		return nil, nil, err
	}
	stop := func() {
		srv.Close()
		if err := shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "sut: shutdown:", err)
		}
	}
	return sutReady{BaseURL: baseURL, Side: side}, stop, nil
}
