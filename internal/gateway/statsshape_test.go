package gateway

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bubble"
)

// keyPaths lists every key path of a JSON document, sorted: an object's
// key is parent.key, an array's elements share parent[], and the keys of
// a map keyed by data (an owner name, an invocation state) read as *.
func keyPaths(doc any) []string {
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			dynamic := strings.HasSuffix(prefix, "owners") || strings.HasSuffix(prefix, "invocations")
			for k, e := range v {
				if dynamic {
					k = "*"
				}
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				set[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range v {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", doc)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func statsPaths(t *testing.T, base, doc string) []string {
	t.Helper()
	resp, err := web.Get(base + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	paths := keyPaths(v)
	for i, p := range paths {
		paths[i] = doc + " " + p
	}
	return paths
}

// TestStatsDocumentShape pins /api/stats to the key paths it had before
// its counters moved into metrics.Block stores: cmd/bench, onserve-cli
// and portal.Client decode the document by field name. It covers an
// appliance with tenancy off, one with tenancy on, and the gateway's
// document over a tenancy-on fleet.
func TestStatsDocumentShape(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		off := bootFleet(t, 1, nil)
		on := bootFleet(t, 2, func(cfg *Config) { cfg.Appliance.Tenancy = fleetTenancyConfig() })
		var got []string
		got = append(got, statsPaths(t, off.gw.Fleet()[0].BaseURL, "appliance")...)
		got = append(got, statsPaths(t, on.gw.Fleet()[0].BaseURL, "appliance+tenancy")...)
		got = append(got, statsPaths(t, on.gw.BaseURL, "gateway")...)

		raw, err := os.ReadFile("testdata/stats-paths.txt")
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			wanted := map[string]bool{}
			for _, p := range want {
				wanted[p] = true
			}
			for _, p := range got {
				if !wanted[p] {
					t.Errorf("new key path %s", p)
				}
				delete(wanted, p)
			}
			for p := range wanted {
				t.Errorf("lost key path %s", p)
			}
		}
	})
}
