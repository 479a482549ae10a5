package experiments

import "testing"

func TestAblationPollHub(t *testing.T) {
	const n = 12
	res, err := AblationPollHub(Options{}, n)
	if err != nil {
		t.Fatal(err)
	}
	pinKeys(t, res, "pollhub.json")
	vals := ablationMap(res)
	// The push column retires steady-state status polling: at most the
	// handful of bootstrap RPCs spent before each stream connects, where
	// n independent pollers spend one per invocation per tick.
	sRPC, pRPC := vals["poll-hub/stock/status_rpcs"], vals["poll-hub/push/status_rpcs"]
	if sRPC == 0 || pRPC >= sRPC {
		t.Fatalf("push should poll less than n pollers: stock %v RPCs vs push %v", sRPC, pRPC)
	}
	// Most polls see unchanged output and the stock poller re-fetches it
	// all the same; push ships each snapshot once, in its frame.
	if pb, sb := vals["poll-hub/push/output_bytes_kb"], vals["poll-hub/stock/output_bytes_kb"]; pb >= sb {
		t.Fatalf("push should fetch fewer output bytes: stock %v KB vs push %v KB", sb, pb)
	}
	if pw, sw := vals["poll-hub/push/poll_disk_writes"], vals["poll-hub/stock/poll_disk_writes"]; pw >= sw {
		t.Fatalf("push should write output to disk less often: stock %v vs push %v", sw, pw)
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
	if _, err := AblationPollHub(Options{}, 1, "nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}
