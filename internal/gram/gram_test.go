package gram

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/jsdl"
	"repro/internal/netsim"
	"repro/internal/xsec"
)

var t0 = time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	grid   *gridsim.Grid
	srv    *Server
	client *Client
	other  *Client
	alice  string
	net    *netsim.Net // the gatekeeper listens on it
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ca, err := xsec.NewCA("GridCA", time.Now(), 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueUser("alice", time.Now(), 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := ca.IssueUser("bob", time.Now(), 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(
		gridsim.SiteConfig{Name: "siteA", Nodes: 2, CoresPerNode: 4},
		gridsim.SiteConfig{Name: "siteB", Nodes: 1, CoresPerNode: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(grid, xsec.NewTrustStore(ca.Cert))
	pipes := netsim.NewNet()
	ln := pipes.Listen()
	hs := netsim.NewHTTPServer(srv)
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	base, rt := "http://"+ln.Addr().String(), hop.NewTransport(pipes.DialContext)
	// Stage a few programs for alice on siteA.
	siteA, _ := grid.Site("siteA")
	siteA.Store().Put(alice.Subject(), "hello.gsh", []byte("echo hello\ncompute 500ms\n"))
	siteA.Store().Put(alice.Subject(), "slow.gsh", []byte("emit 500ms 100 tick\n"))
	siteA.Store().Put(alice.Subject(), "writer.gsh", []byte("write result.dat 64\necho ok\n"))
	return &fixture{
		grid:   grid,
		srv:    srv,
		client: &Client{BaseURL: base, Cred: alice, Transport: rt},
		other:  &Client{BaseURL: base, Cred: bob, Transport: rt},
		alice:  alice.Subject(),
		net:    pipes,
	}
}

func (f *fixture) desc(exe string) *jsdl.Description {
	return &jsdl.Description{Owner: f.alice, Executable: exe, Site: "siteA"}
}

func TestSubmitAndWait(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("hello.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(id, "siteA:job-") {
			t.Fatalf("job id %q", id)
		}
		st, err := f.client.WaitTerminal(id, time.Second, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "DONE" {
			t.Fatalf("state %s: %s", st.State, st.Message)
		}
		out, err := f.client.Output(id)
		if err != nil {
			t.Fatal(err)
		}
		if out != "hello\n" {
			t.Fatalf("output %q", out)
		}
	})
}

func TestOutputFileRetrieval(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("writer.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.WaitTerminal(id, time.Second, time.Hour); err != nil {
			t.Fatal(err)
		}
		data, err := f.client.OutputFile(id, "result.dat")
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 64 {
			t.Fatalf("artifact %d bytes", len(data))
		}
		// The 404 of a missing artifact says so; the job's is another.
		if _, err := f.client.OutputFile(id, "ghost.dat"); !errors.Is(err, ErrNoSuchFile) || errors.Is(err, ErrNoSuchJob) {
			t.Fatalf("missing artifact: got %v, want ErrNoSuchFile", err)
		}
		if _, err := f.client.OutputFile("siteA:job-999999", "result.dat"); !errors.Is(err, ErrNoSuchJob) || errors.Is(err, ErrNoSuchFile) {
			t.Fatalf("missing job: got %v, want ErrNoSuchJob", err)
		}
	})
}

// TestJobRequestsEscapeQueryValues: an output-file name is data, not query
// syntax. Unescaped, '&' and '#' cut the name short (and '&' adds a
// parameter to a signed request), '+' and ' ' decode to the wrong bytes.
func TestJobRequestsEscapeQueryValues(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		siteA, _ := f.grid.Site("siteA")
		siteA.Store().Put(f.alice, "named.gsh", []byte("write plain.dat 8\nwrite ${out} 32\ncompute 23h\n"))
		for _, name := range []string{"a&job=siteA:job-999999", "frag#ment.dat", "one+two.dat", "with space.dat", "100%.dat"} {
			desc := f.desc("named.gsh")
			desc.Arguments = map[string]string{"out": name}
			id, err := f.client.Submit(desc)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				data, err := f.client.OutputFile(id, name)
				if err == nil {
					if len(data) != 32 {
						t.Fatalf("%q: fetched %d bytes, want the 32-byte artifact", name, len(data))
					}
					break
				}
				if !errors.Is(err, ErrNoSuchFile) || time.Now().After(deadline) {
					t.Fatalf("%q: %v", name, err)
				}
				time.Sleep(time.Millisecond) // not written yet
			}
			// The job ID is data too: the gatekeeper is asked about exactly the
			// (non-existent) job named, not about a prefix of it.
			if _, err := f.client.Status(id + "&job=" + id + "#x y+z"); !errors.Is(err, ErrNoSuchJob) {
				t.Fatalf("hostile job id: %v", err)
			}
			// Cancel takes the same route: the job it names is the one stopped.
			if st, err := f.client.Cancel(id); err != nil || st.JobID != id {
				t.Fatalf("%q: cancel: %+v, %v", name, st, err)
			}
			if st, err := f.client.WaitTerminal(id, time.Second, time.Hour); err != nil || st.State != "CANCELLED" {
				t.Fatalf("%q: after cancel: %+v, %v", name, st, err)
			}
		}
	})
}

// TestTentativeOutputPollingSeesPartialOutput: a poll that lands while the
// job runs sees RUNNING and the output so far — the paper's workaround
// behaviour. In a bubble the job's ticks land at known instants, and the
// mid-run poll runs at one of them, once the job is parked again, so it
// has one outcome.
func TestTentativeOutputPollingSeesPartialOutput(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		siteA, _ := f.grid.Site("siteA")
		siteA.Store().Put(f.alice, "ticks.gsh", []byte("emit 500ms 3 tick\n"))
		id, err := f.client.Submit(f.desc("ticks.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		job, err := f.grid.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Millisecond)
		bubble.Wait() // one tick written, the next interval begun
		st, err := f.client.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := f.client.Output(id)
		if err != nil || st.State != "RUNNING" || partial != "tick\n" {
			t.Fatalf("mid-run poll: %s, %q, %v; want RUNNING with one tick", st.State, partial, err)
		}
		<-job.Done()
		full, err := f.client.WaitTerminal(id, time.Second, time.Hour)
		if err != nil || full.State != "DONE" {
			t.Fatalf("after the last tick: %+v, %v", full, err)
		}
		if final, _ := f.client.Output(id); final != strings.Repeat(partial, 3) {
			t.Fatalf("final output %q, partial %q", final, partial)
		}
	})
}

func TestCancel(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("slow.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.Cancel(id); err != nil {
			t.Fatal(err)
		}
		st, err := f.client.WaitTerminal(id, time.Second, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "CANCELLED" {
			t.Fatalf("state %s", st.State)
		}
	})
}

func TestOwnershipEnforced(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("hello.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.other.Status(id); !errors.Is(err, ErrNotOwner) {
			t.Fatalf("got %v", err)
		}
		if _, err := f.other.Output(id); err == nil {
			t.Fatal("bob read alice's output")
		}
		if _, err := f.other.Cancel(id); !errors.Is(err, ErrNotOwner) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestStatusBatch(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id1, err := f.client.Submit(f.desc("hello.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		id2, err := f.client.Submit(f.desc("writer.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.WaitTerminal(id1, time.Second, time.Hour); err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.WaitTerminal(id2, time.Second, time.Hour); err != nil {
			t.Fatal(err)
		}
		entries, err := f.client.StatusBatch([]string{id1, "siteA:job-999999", id2})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("%d entries", len(entries))
		}
		if entries[0].JobID != id1 || entries[0].State != "DONE" || entries[0].Error != "" {
			t.Fatalf("entry 0: %+v", entries[0])
		}
		if entries[0].OutputVersion == 0 {
			t.Fatalf("hello.gsh emitted output but version is 0")
		}
		if entries[1].Error == "" || entries[1].State != "" {
			t.Fatalf("bad job did not error per-entry: %+v", entries[1])
		}
		if entries[2].JobID != id2 || entries[2].State != "DONE" || entries[2].Error != "" {
			t.Fatalf("entry 2 after bad entry: %+v", entries[2])
		}
	})
}

func TestStatusBatchOwnershipPerEntry(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("hello.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := f.other.StatusBatch([]string{id})
		if err != nil {
			t.Fatal(err)
		}
		if entries[0].Error == "" || entries[0].State != "" {
			t.Fatalf("bob read alice's job in a batch: %+v", entries[0])
		}
	})
}

func TestStatusBatchRejectsEmpty(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		// A zero-length batch is degenerate client-side (no chunks, no
		// round-trips, empty result).
		entries, err := f.client.StatusBatch(nil)
		if err != nil || len(entries) != 0 {
			t.Fatalf("entries %v err %v", entries, err)
		}
	})
}

func TestConditionalOutputFetch(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("hello.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.WaitTerminal(id, time.Second, time.Hour); err != nil {
			t.Fatal(err)
		}
		out, ver, changed, err := f.client.OutputIfChanged(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !changed || out != "hello\n" || ver == 0 {
			t.Fatalf("first fetch: changed=%v out=%q ver=%d", changed, out, ver)
		}
		// Re-fetch at the served version: 304, zero bytes.
		out2, ver2, changed2, err := f.client.OutputIfChanged(id, ver)
		if err != nil {
			t.Fatal(err)
		}
		if changed2 || out2 != "" || ver2 != ver {
			t.Fatalf("unchanged fetch: changed=%v out=%q ver=%d", changed2, out2, ver2)
		}
		// The batch reply advertises the same version the ETag carries.
		entries, err := f.client.StatusBatch([]string{id})
		if err != nil {
			t.Fatal(err)
		}
		if entries[0].OutputVersion != ver {
			t.Fatalf("batch version %d, ETag version %d", entries[0].OutputVersion, ver)
		}
	})
}

func TestConditionalOutputSeesNewOutput(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("slow.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		// Poll conditionally until output appears, then confirm a later poll
		// at the same version returns 304 or fresh output with a higher
		// version — never a stale snapshot.
		deadline := time.Now().Add(5 * time.Second)
		var ver uint64
		for {
			out, v, changed, err := f.client.OutputIfChanged(id, ver)
			if err != nil {
				t.Fatal(err)
			}
			if changed {
				if v <= ver {
					t.Fatalf("version did not advance: %d -> %d", ver, v)
				}
				if !strings.Contains(out, "tick") {
					t.Fatalf("changed fetch with output %q", out)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no output change observed")
			}
			time.Sleep(time.Millisecond)
		}
		f.client.Cancel(id)
	})
}

func TestSubmitOwnerMustMatchIdentity(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		d := f.desc("hello.gsh") // owner = alice
		if _, err := f.other.Submit(d); !errors.Is(err, ErrDenied) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestSubmitUnstagedExecutable(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		if _, err := f.client.Submit(f.desc("ghost.gsh")); !errors.Is(err, ErrBadInput) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestUnauthenticatedRejected(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		bare := &Client{BaseURL: f.client.BaseURL, Cred: &xsec.Credential{}, Transport: f.client.Transport}
		if _, err := bare.Submit(f.desc("hello.gsh")); err == nil {
			t.Fatal("credential-less submit accepted")
		}
	})
}

func TestExpiredProxyRejected(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		// A proxy that expired a virtual second before the request lands.
		shortProxy, err := f.client.Cred.Delegate(time.Now(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Second)
		expired := &Client{BaseURL: f.client.BaseURL, Cred: shortProxy, Transport: f.client.Transport}
		if _, err := expired.Submit(f.desc("hello.gsh")); !errors.Is(err, ErrDenied) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestStatusOfUnknownJob(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		if _, err := f.client.Status("siteA:job-999999"); !errors.Is(err, ErrNoSuchJob) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestSites(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		stats, err := f.client.Sites()
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 2 || stats[0].Name != "siteA" {
			t.Fatalf("stats %+v", stats)
		}
	})
}

func TestUsageAccounting(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		// Before running anything: empty usage.
		usage, err := f.client.Usage()
		if err != nil {
			t.Fatal(err)
		}
		if len(usage) != 0 {
			t.Fatalf("usage %+v", usage)
		}
		id, err := f.client.Submit(f.desc("hello.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.WaitTerminal(id, time.Second, time.Hour); err != nil {
			t.Fatal(err)
		}
		usage, err = f.client.Usage()
		if err != nil {
			t.Fatal(err)
		}
		if len(usage) != 1 || usage[0].Site != "siteA" {
			t.Fatalf("usage %+v", usage)
		}
		u := usage[0].Usage
		if u.Jobs != 1 || u.CPUSeconds < 0.4 {
			t.Fatalf("owner usage %+v (hello.gsh computes 500ms)", u)
		}
		// Bob's usage is separate — and empty.
		bobUsage, err := f.other.Usage()
		if err != nil {
			t.Fatal(err)
		}
		if len(bobUsage) != 0 {
			t.Fatalf("bob's usage %+v", bobUsage)
		}
	})
}

func TestWaitTerminalTimeout(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		id, err := f.client.Submit(f.desc("slow.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.client.WaitTerminal(id, time.Second, 2*time.Second)
		if err == nil || !strings.Contains(err.Error(), "not terminal") {
			t.Fatalf("got %v", err)
		}
		f.client.Cancel(id)
	})
}

func TestProxySubmission(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		proxy, err := f.client.Cred.Delegate(time.Now(), 12*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		proxied := &Client{BaseURL: f.client.BaseURL, Cred: proxy, Transport: f.client.Transport}
		id, err := proxied.Submit(f.desc("hello.gsh"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := proxied.WaitTerminal(id, time.Second, time.Hour)
		if err != nil || st.State != "DONE" {
			t.Fatalf("proxied job: %v %v", st, err)
		}
	})
}

func TestUnknownEndpoint(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		resp, err := (&http.Client{Transport: f.client.Transport}).Get(f.client.BaseURL + "/gram/bogus")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
}
