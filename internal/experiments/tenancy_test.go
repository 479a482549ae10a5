package experiments

import "testing"

func TestAblationTenancyShape(t *testing.T) {
	// A small burst keeps the smoke run fast; the control plane's quota
	// (8 in-flight + 64 queued for the hog) still saturates, so both the
	// shed path and the fair-share bound are exercised.
	const burst = 96
	res, err := AblationTenancy(fastOpts(), burst)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "tenancy.json")
	vals := ablationMap(res)
	study := "noisy-neighbor"

	for _, variant := range []string{"tenancy-off", "tenancy-on"} {
		if got := vals[study+"/"+variant+"/burst"]; got != burst {
			t.Fatalf("%s burst %v, want %d", variant, got, burst)
		}
		if got := vals[study+"/"+variant+"/victim_p99_ms"]; got <= 0 {
			t.Fatalf("%s victim p99 %v", variant, got)
		}
	}

	// Off: nothing is denied — the whole burst lands on the grid.
	if got := vals[study+"/tenancy-off/hog_denied"]; got != 0 {
		t.Fatalf("tenancy-off denied %v invocations", got)
	}
	if got := vals[study+"/tenancy-off/hog_admitted"]; got != burst {
		t.Fatalf("tenancy-off admitted %v, want %d", got, burst)
	}

	// On: the hog is capped, so admitted + denied covers the burst and
	// at least the overflow past in-flight + queue depth was shed.
	admitted := vals[study+"/tenancy-on/hog_admitted"]
	denied := vals[study+"/tenancy-on/hog_denied"]
	if admitted+denied != burst {
		t.Fatalf("tenancy-on admitted %v + denied %v != %d", admitted, denied, burst)
	}
	if denied == 0 {
		t.Fatal("tenancy-on shed nothing; the quota never saturated")
	}

	// The acceptance gate: the victim's p99 stays within the fair-share
	// bound when the control plane is on.
	if got := vals[study+"/tenancy-on/bound_ok"]; got != 1 {
		t.Fatalf("tenancy-on victim p99 %v ms exceeded the fair-share bound %v ms",
			vals[study+"/tenancy-on/victim_p99_ms"], vals[study+"/tenancy-on/fair_share_bound_ms"])
	}

	// Audit books balance: every action exactly once, traces resolvable.
	if got := vals[study+"/tenancy-on/audit_exactly_once"]; got != 1 {
		t.Fatalf("audit not exactly-once: records=%v ok=%v denied=%v dropped=%v",
			vals[study+"/tenancy-on/audit_records"], vals[study+"/tenancy-on/audit_ok_invokes"],
			vals[study+"/tenancy-on/audit_denied"], vals[study+"/tenancy-on/audit_dropped"])
	}
	if got := vals[study+"/tenancy-on/trace_resolvable"]; got != 1 {
		t.Fatal("audit trace IDs did not resolve to tenant.admit spans")
	}
}
