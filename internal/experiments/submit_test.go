package experiments

import "testing"

func TestAblationSubmitShape(t *testing.T) {
	const n = 12
	res, err := AblationSubmit(fastOpts(), n)
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
	// The batched front-end amortises every leg of the chain.
	if vals["submit/batched/uploads"] >= vals["submit/stock/uploads"] {
		t.Fatalf("batched uploads %v not below stock %v",
			vals["submit/batched/uploads"], vals["submit/stock/uploads"])
	}
	// Every burst member either led or joined a staging flight.
	if got := vals["submit/batched/uploads"] + vals["submit/batched/uploads_coalesced"]; got != n {
		t.Fatalf("batched uploads+coalesced = %v, want %d", got, n)
	}
	if vals["submit/batched/submit_rpcs"] >= vals["submit/stock/submit_rpcs"] {
		t.Fatalf("batched submit_rpcs %v not below stock %v",
			vals["submit/batched/submit_rpcs"], vals["submit/stock/submit_rpcs"])
	}
	if vals["submit/batched/submits_batched"] != n {
		t.Fatalf("batched submits_batched = %v, want %d", vals["submit/batched/submits_batched"], n)
	}
	if vals["submit/batched/stats_rpcs"] >= vals["submit/stock/stats_rpcs"] {
		t.Fatalf("batched stats_rpcs %v not below stock %v",
			vals["submit/batched/stats_rpcs"], vals["submit/stock/stats_rpcs"])
	}
	// Trading a short coalescing wait for the removed RPCs must not blow
	// up the makespan.
	if vals["submit/batched/makespan_s"] > vals["submit/stock/makespan_s"]*1.5 {
		t.Fatalf("batched makespan %v vs stock %v",
			vals["submit/batched/makespan_s"], vals["submit/stock/makespan_s"])
	}
}
