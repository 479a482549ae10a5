package appliance_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gsh"
)

// TestProfilesEndToEnd boots the two supported configurations against a
// grid and drives publish → invoke → wait → delete through each,
// asserting the output and the path the profile promises to take.
func TestProfilesEndToEnd(t *testing.T) {
	bubble.Run(func() {
		for _, tc := range []struct {
			name       string
			profile    func() appliance.Config
			production bool
		}{
			{"paper", appliance.Paper, false},
			{"production", func() appliance.Config { return appliance.Production("") }, true},
			{"production-on-disk", func() appliance.Config { return appliance.Production(t.TempDir()) }, true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				ons := appliancetest.Boot(t, profile(tc.profile())).App.OnServe
				rec, err := ons.UploadAndGenerate("alice", "hello.gsh", "", nil, []byte("compute 1m\necho hello\n"))
				if err != nil {
					t.Fatal(err)
				}
				inv, err := ons.Invoke(rec.Name, nil)
				if err != nil {
					t.Fatal(err)
				}
				<-inv.DoneChan()
				if inv.State() != core.InvDone || inv.Output() != "hello\n" {
					t.Fatalf("state %s (%s), output %q", inv.State(), inv.Message(), inv.Output())
				}
				if err := ons.DeleteService(rec.Name); err != nil {
					t.Fatal(err)
				}
				collected, events, staged := ons.CollectorStats(), ons.EventStats(), ons.StageStats()
				if tc.production {
					if events.StreamsOpened < 1 || events.FallbacksToPoll != 0 || staged.ChunkedUploads < 1 {
						t.Fatalf("production did not collect by push over chunked staging: %+v %+v", events, staged)
					}
				} else if collected.StatusRPCs == 0 || events != (core.EventStats{}) || staged.ChunkedUploads != 0 {
					t.Fatalf("paper did not collect by tentative polling over a plain PUT: %+v %+v %+v", collected, events, staged)
				}
			})
		}
	})
}

// profile is a fixture's mutate that boots p: the fixture's grid, network
// and cadence, and p's knobs.
func profile(p appliance.Config) func(*appliance.Config) {
	return func(cfg *appliance.Config) {
		wiring := *cfg
		*cfg = p
		cfg.Endpoints, cfg.GridDial = wiring.Endpoints, wiring.GridDial
		cfg.PollInterval, cfg.InvocationTimeout = wiring.PollInterval, wiring.InvocationTimeout
	}
}

// TestConfigSurface pins the exported fields of Config. The list is the
// knob matrix every test, benchmark and operator has to reason about;
// it only shrinks. It is declared once: Config is core's type, and what
// Boot hands core.New beside it holds built components, nothing a knob
// could hide in.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Endpoints", "Probe", "DBDir", "GridDial",
		"PollInterval", "InvocationTimeout", "StagingCache", "DirectDBWrite",
		"SessionCache", "StatsTTL", "PushEvents", "CoalesceStaging", "ChunkedStaging",
		"WireCompression", "DataAwarePlacement", "BlobCacheBytes", "GroupCommit",
		"WALShards", "AutoCompact", "Trace", "Tenancy",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(appliance.Config{})) {
		got = append(got, f.Name)
	}
	t.Logf("appliance.Config: %d fields", len(got)) // verify.sh prints this
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appliance.Config fields changed:\n got %v\nwant %v\na new knob needs two callers at the parent commit that want different values", got, want)
	}
	if reflect.TypeOf(appliance.Config{}) != reflect.TypeOf(core.Config{}) {
		t.Fatal("appliance.Config is no longer core.Config: the knobs are declared twice")
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(core.Parts{})) {
		switch k := f.Type.Kind(); {
		case k == reflect.Bool, reflect.Int <= k && k <= reflect.Uintptr:
			// time.Duration is an int64 and lands here too.
			t.Errorf("core.Parts.%s is a %s: a setting belongs in Config", f.Name, f.Type)
		}
	}
}

// tableLen reads the length of one of OnServe's unexported maps or
// slices ("invocations", "poss.cache"), through the strategy of the step
// that keeps it: the tables are core's own business, but how full they
// are after a soak is the appliance's. A table the profile's strategy
// does not keep reads -1.
func tableLen(ons *core.OnServe, path string) int {
	v := reflect.ValueOf(ons)
	for _, name := range strings.Split(path, ".") {
		for v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return -1
		}
		if v = v.FieldByName(name); !v.IsValid() {
			return -1
		}
	}
	return v.Len()
}

// TestPublishCycleLeavesNoApplianceState follows ROADMAP item 3c's lead
// (a publish → invoke → delete loop over unique names grew the process
// by hundreds of MB) on the appliance's side of the wire: after 200
// cycles of a 256 KB executable on either profile, persisted on disk,
// every table the appliance keeps is back at its idle size — the paper
// profile's per-invocation sessions included, each logged out with its
// invocation — and the ticket map holds one ticket per cycle, short of
// its retention bound. What does grow in that loop is the sites' file
// stores — DeleteService leaves the staged copy behind.
func TestPublishCycleLeavesNoApplianceState(t *testing.T) {
	bubble.Run(func() {
		for _, tc := range []struct {
			name    string
			profile func(dbDir string) appliance.Config
		}{
			{"production", appliance.Production},
			{"paper", func(dbDir string) appliance.Config { cfg := appliance.Paper(); cfg.DBDir = dbDir; return cfg }},
		} {
			t.Run(tc.name, func(t *testing.T) { publishCycleSoak(t, tc.profile) })
		}
	})
}

// tables are the tables of OnServe's strategies a soak must leave idle.
var tables = []string{"stage.sites", "poss.cache", "poss.flights", "auth.sessions", "stagingFlights", "stats.flights"}

func publishCycleSoak(t *testing.T, knobs func(dbDir string) appliance.Config) {
	f := appliancetest.Boot(t, profile(knobs(t.TempDir())))
	ons := f.App.OnServe
	if _, err := f.Env.AddUser("soak", "pw", 0); err != nil {
		t.Fatal(err)
	}
	ons.RegisterUser("soak", core.UserAuth{MyProxyUser: "soak", Passphrase: "pw"})
	program := gsh.Pad([]byte("echo ok\n"), 256<<10)
	cycle := func(i int) {
		t.Helper()
		rec, err := ons.UploadAndGenerate("soak", fmt.Sprintf("cycle%04d.gsh", i), "", nil, program)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := ons.Invoke(rec.Name, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if inv.State() != core.InvDone {
			t.Fatalf("cycle %d: %s (%s)", i, inv.State(), inv.Message())
		}
		if err := ons.DeleteService(rec.Name); err != nil {
			t.Fatal(err)
		}
	}
	idle := func() map[string]int {
		sizes := map[string]int{
			"container names":   len(f.App.Container.Names()),
			"registry records":  f.App.Registry.Len(),
			"agent sessions":    f.App.Agent.SessionCount(),
			"executables table": len(f.App.DB.Table(core.ExecutablesTable).Keys()),
		}
		for _, table := range tables {
			sizes[table] = tableLen(ons, table)
		}
		return sizes
	}
	// The first cycle logs on and, with a session cache, opens the cached
	// session's event stream; what it leaves behind is the idle state every
	// later cycle must return to. A session that is not cached is logged
	// out by whoever records its invocation's end, just after the waiters
	// here are woken: the tables are read once every other goroutine is
	// parked.
	settled := func() map[string]int {
		bubble.Wait()
		return idle()
	}
	cycle(0)
	want := settled()
	for _, table := range tables {
		if want[table] < 0 && reflect.DeepEqual(knobs(""), appliance.Production("")) {
			t.Fatalf("production keeps no table %s", table)
		}
	}
	if cached := max(want["auth.sessions"], 0); want["agent sessions"] != cached {
		t.Fatalf("idle with %d agent sessions, %d of them cached", want["agent sessions"], cached)
	}
	const cycles = 200
	for i := 1; i <= cycles; i++ {
		cycle(i)
	}
	if got := settled(); !reflect.DeepEqual(got, want) {
		t.Errorf("after %d publish cycles:\n got %v\nidle %v", cycles, got, want)
	}
	// One ticket per cycle and nothing else: the ticket map is the one
	// table meant to grow, up to core.DefaultInvocationRetention.
	if n := tableLen(ons, "invocations"); n != cycles+1 {
		t.Errorf("ticket map holds %d invocations after %d cycles", n, cycles+1)
	}
}

// TestShutdownEndsTheCollectors: an appliance shut down while it holds a
// job sends nothing more to the gatekeeper — no event-stream reconnect,
// no status poll — though the grid it was attached to goes away after it,
// as a rig's does, and time runs on.
func TestShutdownEndsTheCollectors(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		var down atomic.Bool
		var dials atomic.Int32
		var poll time.Duration
		f := appliancetest.Boot(t, func(cfg *appliance.Config) {
			profile(appliance.Production(""))(cfg)
			poll = cfg.PollInterval
			gatekeeper, dial := strings.TrimPrefix(cfg.Endpoints.GramURL, "http://"), cfg.GridDial
			cfg.GridDial = func(ctx context.Context, network, addr string) (net.Conn, error) {
				if addr == gatekeeper && down.Load() {
					dials.Add(1)
				}
				return dial(ctx, network, addr)
			}
		})
		ons := f.App.OnServe
		rec, err := ons.UploadAndGenerate("alice", "hold.gsh", "", nil, []byte("compute 1h\n"))
		if err != nil {
			t.Fatal(err)
		}
		inv, err := ons.Invoke(rec.Name, nil)
		if err != nil {
			t.Fatal(err)
		}
		bubble.Wait()
		if ons.EventStats().StreamsOpened != 1 || inv.State().Terminal() {
			t.Fatalf("held job %s, %+v: want one open stream", inv.State(), ons.EventStats())
		}
		down.Store(true)
		f.App.Shutdown()
		f.Env.Close()
		time.Sleep(10 * poll)
		if n := dials.Load(); n != 0 {
			t.Fatalf("%d dials of the gatekeeper after Shutdown, want 0", n)
		}
	})
}
