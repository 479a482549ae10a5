package experiments

import "testing"

func TestAblationHotPath(t *testing.T) {
	const invocations = 3
	res, err := AblationHotPath(fastOpts(), 256, invocations)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "hotpath.json")
	vals := ablationMap(res)
	// The verdict is what each lever removes, counted where it happens:
	// MyProxy logons and scheduler-statistics fetches. Bytes and makespans
	// are reported but not judged — the number of polls in a run, and so
	// its traffic, follows the host's speed through the dilated clock.
	for _, variant := range HotPathVariants {
		sessionCache := variant == "session-cache" || variant == "warm"
		statsTTL := variant == "stats-ttl" || variant == "warm"
		logons := vals["hot-path/"+variant+"/logons"]
		if want := map[bool]float64{true: 1, false: invocations}[sessionCache]; logons != want {
			t.Errorf("%s: %v MyProxy logons for %d invocations, want %v", variant, logons, invocations, want)
		}
		// The TTL is 30 virtual seconds against ~11 per invocation, so
		// one fetch serves the run; a host stalled for tens of real
		// milliseconds between two invocations can age the snapshot out
		// once, so "fewer than one per invocation" is what must hold.
		rpcs := vals["hot-path/"+variant+"/stats_rpcs"]
		if statsTTL && (rpcs < 1 || rpcs >= invocations) || !statsTTL && rpcs != invocations {
			t.Errorf("%s: %v statistics fetches for %d invocations", variant, rpcs, invocations)
		}
	}
	// Warm also skips the per-invocation auth burn.
	if vals["hot-path/warm/cpu_total_s"] >= vals["hot-path/stock/cpu_total_s"] {
		t.Errorf("warm path should burn less CPU: %v", vals)
	}
}

func TestAblationHotPathUnknownVariant(t *testing.T) {
	if _, err := AblationHotPath(fastOpts(), 64, 1, "nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestAblationGroupCommit(t *testing.T) {
	res, err := AblationGroupCommit(32, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	vals := ablationMap(res)
	if vals["group-commit/stock/wal_syncs"] != 0 {
		t.Fatalf("stock path should not fsync per put: %v", vals)
	}
	if vals["group-commit/group/wal_syncs"] < 1 {
		t.Fatalf("group commit never synced: %v", vals)
	}
	if vals["group-commit/group/wal_writes"] > vals["group-commit/stock/wal_writes"] {
		t.Fatalf("batching should not increase WAL writes: %v", vals)
	}
	if vals["group-commit/stock/wal_writes"] != 64 {
		t.Fatalf("stock writes %v, want one per put", vals["group-commit/stock/wal_writes"])
	}
}
