package experiments

import "testing"

func TestAblationPlacementShape(t *testing.T) {
	const n = 8
	res, err := AblationPlacement(fastOpts(), n, []int{768})
	if err != nil {
		t.Fatal(err)
	}
	vals := ablationMap(res)
	study := "placement-768kb"

	// The paper's broker never probes possession.
	if vals[study+"/load-only/probe_rpcs"] != 0 {
		t.Fatalf("load-only issued %v probes", vals[study+"/load-only/probe_rpcs"])
	}
	if vals[study+"/load-only/makespan_s"] <= 0 {
		t.Fatalf("load-only makespan %v", vals[study+"/load-only/makespan_s"])
	}
	// The bytes were primed away from the load broker's favourite site,
	// so load-only placement re-ships the payload cold.
	if got := vals[study+"/load-only/chunks_shipped"]; got == 0 {
		t.Fatal("load-only burst never re-shipped the executable")
	}

	// 768 KB costs ~9 s to re-ship but at most ~4 s of queueing at this
	// burst size, so the scorer keeps the whole burst at the primed site
	// and every staging dedupes completely: the warm path ships nothing.
	if got := vals[study+"/data-aware/chunks_shipped"]; got != 0 {
		t.Fatalf("data-aware burst shipped %v chunks, want 0", got)
	}
	if got := vals[study+"/data-aware/probe_rpcs"] + vals[study+"/data-aware/probe_cache_hits"]; got == 0 {
		t.Fatal("data-aware burst neither probed nor hit the possession cache")
	}

	// Possession can only reduce the WAN bill, never raise it: the
	// data-aware chunk payload is bounded by the load-only one.
	if vals[study+"/data-aware/chunk_wire_b"] > vals[study+"/load-only/chunk_wire_b"] {
		t.Fatalf("data-aware chunk wire %v exceeds load-only %v",
			vals[study+"/data-aware/chunk_wire_b"], vals[study+"/load-only/chunk_wire_b"])
	}
}
