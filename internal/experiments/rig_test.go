package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/appliance"
	"repro/internal/core"
)

func TestFanOutBoundsWidthAndReturnsAnError(t *testing.T) {
	var running, peak, calls atomic.Int64
	boom := errors.New("boom")
	err := fanOut(40, 4, func(i int) error {
		calls.Add(1)
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer running.Add(-1)
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls.Load() != 40 {
		t.Fatalf("%d calls, want all 40 to run whatever one returns", calls.Load())
	}
	if peak.Load() > 4 {
		t.Fatalf("%d ran at once, width 4", peak.Load())
	}
	if err := fanOut(0, 0, func(int) error { return boom }); err != nil {
		t.Fatalf("empty fan-out: %v", err)
	}
	// width <= 0 is "all at once": every call must be able to start
	// before any returns.
	var started sync.WaitGroup
	started.Add(8)
	if err := fanOut(8, 0, func(int) error {
		started.Done()
		started.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSinceReportsGrowthOfEveryCounter(t *testing.T) {
	cur := core.SubmitStats{Uploads: 3, SubmitRPCs: 10, StatsCollapsed: 7}
	grown := since(func() core.SubmitStats { return cur })
	cur.Uploads, cur.SubmitRPCs, cur.StatsRPCs = 5, 10, 2
	if got, want := grown(), (core.SubmitStats{Uploads: 2, StatsRPCs: 2}); got != want {
		t.Fatalf("since = %+v, want %+v", got, want)
	}
	if cur.Uploads != 5 {
		t.Fatal("since wrote through to the counters it read")
	}
}

func TestVariantTablePick(t *testing.T) {
	table := variantTable{"demo", []variant{
		{"stock", nil},
		{"a", func(c *appliance.Config) { c.SessionCache = true }},
		{"b", func(c *appliance.Config) { c.StagingCache = true }},
	}}
	if got := fmt.Sprint(table.names()); got != "[stock a b]" {
		t.Fatalf("names %s", got)
	}
	all, err := table.pick()
	if err != nil || len(all.all) != 3 {
		t.Fatalf("pick() = %v, %v", all.names(), err)
	}
	some, err := table.pick("b", "stock")
	if err != nil || fmt.Sprint(some.names()) != "[b stock]" || some.what != "demo" {
		t.Fatalf("pick(b, stock) = %v, %v", some.names(), err)
	}
	if _, err := table.pick("a", "nope"); err == nil || !strings.Contains(err.Error(), `unknown demo variant "nope"`) {
		t.Fatalf("pick(nope) error = %v", err)
	}
	// Every exported variant list is its table's names, in order.
	for name, pair := range map[string][2][]string{
		"hot-path":  {HotPathVariants, hotPathTable.names()},
		"poll-hub":  {PollHubVariants, pollHubTable.names()},
		"submit":    {SubmitVariants, submitTable.names()},
		"stage":     {StageVariants, stageTable.names()},
		"placement": {PlacementVariants, placementTable.names()},
	} {
		if len(pair[0]) == 0 || fmt.Sprint(pair[0]) != fmt.Sprint(pair[1]) {
			t.Errorf("%s: exported %v, table %v", name, pair[0], pair[1])
		}
	}
}

// TestRigRunsOnPipes: every endpoint the rig hands out — grid, MyProxy,
// appliance — is a listener on its in-process network, so the rig opens
// no socket.
func TestRigRunsOnPipes(t *testing.T) {
	err := withRig(Options{}, func(r *rig) error {
		eps := r.env.Endpoints()
		urls := []string{eps.GramURL, r.app.BaseURL}
		for _, u := range eps.FTPURLs {
			urls = append(urls, u)
		}
		addrs := []string{eps.MyProxyAddr}
		for _, u := range urls {
			parsed, err := url.Parse(u)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, parsed.Host)
		}
		for _, addr := range addrs {
			c, err := r.uplink.Net.DialContext(context.Background(), "tcp", addr)
			if err != nil {
				t.Fatalf("endpoint %s is not on the rig's pipes: %v", addr, err)
			}
			if c.RemoteAddr().Network() != "pipe" {
				t.Fatalf("endpoint %s answers on %s", addr, c.RemoteAddr().Network())
			}
			c.Close()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
