package experiments

import "testing"

func TestAblationSubmitShape(t *testing.T) {
	const n = 12
	res, err := AblationSubmit(Options{}, n)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "submit.json")
	vals := ablationMap(res)
	// Stock pays the full per-invocation price: one WAN upload, one
	// submit RPC and one stats fetch per burst member.
	if vals["submit/stock/uploads"] != n {
		t.Fatalf("stock uploads = %v, want %d", vals["submit/stock/uploads"], n)
	}
	if vals["submit/stock/submit_rpcs"] != n {
		t.Fatalf("stock submit_rpcs = %v, want %d", vals["submit/stock/submit_rpcs"], n)
	}
	// The coalesced front-end amortises the staging and stats legs; the
	// submit leg stays one RPC per invocation.
	if vals["submit/coalesced/uploads"] >= vals["submit/stock/uploads"] {
		t.Fatalf("coalesced uploads %v not below stock %v",
			vals["submit/coalesced/uploads"], vals["submit/stock/uploads"])
	}
	// Every burst member either led or joined a staging flight.
	if got := vals["submit/coalesced/uploads"] + vals["submit/coalesced/uploads_coalesced"]; got != n {
		t.Fatalf("coalesced uploads+coalesced = %v, want %d", got, n)
	}
	if vals["submit/coalesced/submit_rpcs"] != n {
		t.Fatalf("coalesced submit_rpcs = %v, want %d", vals["submit/coalesced/submit_rpcs"], n)
	}
	if vals["submit/coalesced/stats_rpcs"] >= vals["submit/stock/stats_rpcs"] {
		t.Fatalf("coalesced stats_rpcs %v not below stock %v",
			vals["submit/coalesced/stats_rpcs"], vals["submit/stock/stats_rpcs"])
	}
	// Waiting on a shared transfer must not blow up the makespan.
	if vals["submit/coalesced/makespan_s"] > vals["submit/stock/makespan_s"]*1.5 {
		t.Fatalf("coalesced makespan %v vs stock %v",
			vals["submit/coalesced/makespan_s"], vals["submit/stock/makespan_s"])
	}
}
