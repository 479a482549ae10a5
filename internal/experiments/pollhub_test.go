package experiments

import "testing"

func TestAblationPollHub(t *testing.T) {
	const n = 12
	res, err := AblationPollHub(fastOpts(), n)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "pollhub.json")
	vals := ablationMap(res)
	// The hub batches every in-flight job of a shard into one status
	// round-trip, so it must poll the gatekeeper far less often than n
	// independent pollers.
	sRPC, hRPC := vals["poll-hub/stock/status_rpcs"], vals["poll-hub/hub/status_rpcs"]
	if hRPC == 0 || hRPC >= sRPC {
		t.Fatalf("hub should batch status polls: stock %v RPCs vs hub %v", sRPC, hRPC)
	}
	// Two of three polls see unchanged output: the hub confirms those via
	// the version in the batch reply instead of re-fetching the snapshot.
	if vals["poll-hub/hub/output_not_modified"] == 0 {
		t.Fatalf("hub never skipped an unchanged snapshot: %v", vals)
	}
	if hb, sb := vals["poll-hub/hub/output_bytes_kb"], vals["poll-hub/stock/output_bytes_kb"]; hb >= sb {
		t.Fatalf("hub should fetch fewer output bytes: stock %v KB vs hub %v KB", sb, hb)
	}
	if hw, sw := vals["poll-hub/hub/poll_disk_writes"], vals["poll-hub/stock/poll_disk_writes"]; hw >= sw {
		t.Fatalf("hub should write output to disk less often: stock %v vs hub %v", sw, hw)
	}
	// Batching must not slow completion down: makespans stay comparable
	// (host jitter leaks through dilation, so sanity bound only).
	if vals["poll-hub/hub/makespan_s"] >= vals["poll-hub/stock/makespan_s"]*1.5 {
		t.Fatalf("hub grossly slower: %v", vals)
	}
	// The push column retires steady-state status polling: at most the
	// handful of bootstrap RPCs spent before each stream connects — far
	// below even the hub's one-per-shard-tick budget.
	pRPC := vals["poll-hub/push/status_rpcs"]
	if pRPC >= hRPC {
		t.Fatalf("push should out-batch the hub: hub %v RPCs vs push %v", hRPC, pRPC)
	}
	if pRPC > vals["poll-hub/push/event_streams"] {
		t.Fatalf("push steady state not RPC-free: %v status RPCs over %v streams",
			pRPC, vals["poll-hub/push/event_streams"])
	}
	if vals["poll-hub/push/events_delivered"] == 0 {
		t.Fatalf("push delivered no events: %v", vals)
	}
	// A healthy gatekeeper never forces the collector down the ladder.
	if vals["poll-hub/push/fallbacks_to_poll"] != 0 {
		t.Fatalf("push fell back to polling against a healthy server: %v", vals)
	}
	if vals["poll-hub/push/makespan_s"] >= vals["poll-hub/stock/makespan_s"]*1.5 {
		t.Fatalf("push grossly slower: %v", vals)
	}
}

func TestAblationPollHubUnknownVariant(t *testing.T) {
	if _, err := AblationPollHub(fastOpts(), 1, "nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}
