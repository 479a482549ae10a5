package appliance

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gsh"
)

// TestProfilesEndToEnd boots the two supported configurations against a
// grid and drives publish → invoke → wait → delete through each,
// asserting the output and the path the profile promises to take.
func TestProfilesEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name       string
		profile    func() Config
		production bool
	}{
		{"paper", Paper, false},
		{"production", func() Config { return Production("") }, true},
		{"production-on-disk", func() Config { return Production(t.TempDir()) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := boot(t, func(cfg *Config) {
				wiring := *cfg // the fixture's grid, clock and dilation-friendly cadence
				*cfg = tc.profile()
				cfg.Endpoints, cfg.Clock, cfg.Cost = wiring.Endpoints, wiring.Clock, wiring.Cost
				cfg.PollInterval, cfg.InvocationTimeout = wiring.PollInterval, wiring.InvocationTimeout
			})
			// Virtual heartbeats every 5 s would be 0.25 ms apart at this
			// dilation; a stream would false-trip its liveness budget.
			w.env.Gatekeeper.SetHeartbeatInterval(10 * time.Minute)
			ons := w.app.OnServe
			rec, err := ons.UploadAndGenerate("alice", "hello.gsh", "", nil, []byte("compute 1m\necho hello\n"))
			if err != nil {
				t.Fatal(err)
			}
			inv, err := ons.Invoke(rec.Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-inv.DoneChan():
			case <-time.After(10 * time.Second):
				t.Fatalf("invocation stuck in %s", inv.State())
			}
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
}

// TestConfigSurface pins the exported fields of Config. The list is the
// knob matrix every test, benchmark and operator has to reason about;
// it only shrinks. It is declared once: Config is core's type, and what
// Boot hands core.New beside it holds built components, nothing a knob
// could hide in.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Endpoints", "Clock", "Probe", "Cost", "DBDir", "GridHTTP", "MyProxyDial", "UserProfile",
		"PollInterval", "InvocationTimeout", "ProxyLifetime", "StagingCache", "DirectDBWrite",
		"SessionCache", "StatsTTL", "PushEvents", "CoalesceStaging", "ChunkedStaging",
		"ChunkBytes", "WireCompression", "DataAwarePlacement", "BlobCacheBytes", "GroupCommit",
		"WALShards", "AutoCompact", "Trace", "Tenancy",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		got = append(got, f.Name)
	}
	t.Logf("appliance.Config: %d fields", len(got)) // verify.sh prints this
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appliance.Config fields changed:\n got %v\nwant %v\na new knob needs two callers at the parent commit that want different values", got, want)
	}
	if reflect.TypeOf(Config{}) != reflect.TypeOf(core.Config{}) {
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
// slices ("staged", "poss.cache"): the tables are core's own business,
// but how full they are after a soak is the appliance's.
func tableLen(ons *core.OnServe, path string) int {
	v := reflect.ValueOf(ons).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
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
	for _, tc := range []struct {
		name    string
		profile func(dbDir string) Config
	}{
		{"production", Production},
		{"paper", func(dbDir string) Config { cfg := Paper(); cfg.DBDir = dbDir; return cfg }},
	} {
		t.Run(tc.name, func(t *testing.T) { publishCycleSoak(t, tc.profile) })
	}
}

func publishCycleSoak(t *testing.T, profile func(dbDir string) Config) {
	// The owner's proxy outlives the soak at any host speed: at this
	// dilation the default 12 h is two seconds of host time, and a cached
	// session that ages out stays in the agent's table — ROADMAP item
	// 3c's open lead, which would make this verdict the host's.
	const soakProxy = 2 * 365 * 24 * time.Hour
	w := boot(t, func(cfg *Config) {
		wiring := *cfg // as TestProfilesEndToEnd: the fixture's grid, clock and cadence
		*cfg = profile(t.TempDir())
		cfg.Endpoints, cfg.Clock, cfg.Cost = wiring.Endpoints, wiring.Clock, wiring.Cost
		cfg.PollInterval, cfg.InvocationTimeout = wiring.PollInterval, wiring.InvocationTimeout
		cfg.ProxyLifetime = soakProxy
	})
	w.env.Gatekeeper.SetHeartbeatInterval(10 * time.Minute)
	ons := w.app.OnServe
	if _, err := w.env.AddUser("soak", "pw", 2*soakProxy); err != nil {
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
		select {
		case <-inv.DoneChan():
		case <-time.After(10 * time.Second):
			t.Fatalf("cycle %d stuck in %s", i, inv.State())
		}
		if inv.State() != core.InvDone {
			t.Fatalf("cycle %d: %s (%s)", i, inv.State(), inv.Message())
		}
		if err := ons.DeleteService(rec.Name); err != nil {
			t.Fatal(err)
		}
	}
	idle := func() map[string]int {
		sizes := map[string]int{
			"container names":   len(w.app.Container.Names()),
			"registry records":  w.app.Registry.Len(),
			"agent sessions":    w.app.Agent.SessionCount(),
			"executables table": len(w.app.DB.Table(core.ExecutablesTable).Keys()),
		}
		for _, table := range []string{"staged", "poss.cache", "poss.flights", "sessions", "stagingFlights", "statsFlights"} {
			sizes[table] = tableLen(ons, table)
		}
		return sizes
	}
	// The first cycle logs on and, with a session cache, opens the cached
	// session's event stream; what it leaves behind is the idle state every
	// later cycle must return to. A session that is not cached is logged
	// out by whoever records its invocation's end, just after the waiters
	// here are woken.
	settled := func(ok func(map[string]int) bool) map[string]int {
		got := idle()
		for deadline := time.Now().Add(5 * time.Second); !ok(got) && time.Now().Before(deadline); got = idle() {
			time.Sleep(2 * time.Millisecond)
		}
		return got
	}
	cycle(0)
	want := settled(func(got map[string]int) bool { return got["agent sessions"] == got["sessions"] })
	if want["agent sessions"] != want["sessions"] {
		t.Fatalf("idle with %d agent sessions, %d of them cached", want["agent sessions"], want["sessions"])
	}
	const cycles = 200
	for i := 1; i <= cycles; i++ {
		cycle(i)
	}
	if got := settled(func(got map[string]int) bool { return reflect.DeepEqual(got, want) }); !reflect.DeepEqual(got, want) {
		t.Errorf("after %d publish cycles:\n got %v\nidle %v", cycles, got, want)
	}
	// One ticket per cycle and nothing else: the ticket map is the one
	// table meant to grow, up to core.DefaultInvocationRetention.
	if n := tableLen(ons, "invocations"); n != cycles+1 {
		t.Errorf("ticket map holds %d invocations after %d cycles", n, cycles+1)
	}
}
