package appliance

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
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
// it only shrinks.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Endpoints", "Clock", "Probe", "Cost", "DBDir", "GridHTTP", "MyProxyDial", "UserProfile",
		"PollInterval", "InvocationTimeout", "ProxyLifetime", "StagingCache", "DirectDBWrite",
		"SessionCache", "StatsTTL", "PollHub", "PushEvents", "CoalesceStaging", "SubmitHub",
		"SubmitHubWindow", "ChunkedStaging", "ChunkBytes", "WireCompression", "DataAwarePlacement",
		"ReplicateTopK", "BlobCacheBytes", "GroupCommit", "WALShards", "AutoCompact", "Trace", "Tenancy",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		got = append(got, f.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appliance.Config fields changed:\n got %v\nwant %v\na new knob needs two callers at the parent commit that want different values", got, want)
	}
}
