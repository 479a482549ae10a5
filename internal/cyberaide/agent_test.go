package cyberaide

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/jsdl"
	"repro/internal/metrics"
	"repro/internal/soap"
	"repro/internal/vtime"
)

// The agent tests need a full grid environment; to avoid an import cycle
// with gridenv (which imports cyberaide for Endpoints), the environment
// is assembled through the lower-level packages here.
import (
	"repro/internal/gram"
	"repro/internal/gridftp"
	"repro/internal/hop"
	"repro/internal/myproxy"
	"repro/internal/netsim"
	"repro/internal/xsec"
)

type world struct {
	agent *Agent
	grid  *gridsim.Grid
	clock *vtime.Auto
	rec   *metrics.Recorder
	net   *netsim.Net // every server listens on it
}

// serve runs h on a fresh listener of w's network until the test ends,
// returning its root URL.
func (w *world) serve(t *testing.T, h http.Handler) string {
	ln := w.net.Listen()
	srv := netsim.NewHTTPServer(h)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// newWorld boots the grid's servers on one in-process network and an
// event clock.
func newWorld(t *testing.T) *world {
	t.Helper()
	clk := vtime.NewAuto()
	t.Cleanup(clk.Stop)
	w := &world{clock: clk, net: netsim.NewNet()}
	ca, err := xsec.NewCA("CA", clk.Now(), 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := xsec.NewTrustStore(ca.Cert)
	grid, err := gridsim.New(clk,
		gridsim.SiteConfig{Name: "siteA", Nodes: 2, CoresPerNode: 4},
		gridsim.SiteConfig{Name: "siteB", Nodes: 2, CoresPerNode: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	gramURL := w.serve(t, gram.NewServer(grid, trust, clk))
	ftpURLs := map[string]string{}
	for _, name := range grid.SiteNames() {
		site, _ := grid.Site(name)
		ftpURLs[name] = w.serve(t, gridftp.NewServer(site.Store(), trust, clk, hop.NewTransport(w.net.DialContext)))
	}
	mpSrv := myproxy.NewServer(clk)
	ln := w.net.Listen()
	go mpSrv.Serve(ln)
	t.Cleanup(func() { mpSrv.Close() })

	alice, err := ca.IssueUser("alice", clk.Now(), 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mpc := &myproxy.Client{Addr: ln.Addr().String(), Dial: w.net.DialContext}
	if err := mpc.Put("alice", "pw", alice); err != nil {
		t.Fatal(err)
	}

	w.rec = metrics.NewRecorder(clk, 3*time.Second)
	w.agent = New(Options{
		Endpoints: Endpoints{
			GramURL:     gramURL,
			MyProxyAddr: ln.Addr().String(),
			FTPURLs:     ftpURLs,
		},
		Clock: clk,
		Probe: metrics.NewProbe(w.rec),
		Cost:  metrics.Cost{Auth: 100 * time.Millisecond},
		Dial:  w.net.DialContext,
	})
	w.grid = grid
	return w
}

func TestAuthenticateUploadSubmitCollect(t *testing.T) {
	w := newWorld(t)
	sess, err := w.agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Identity != "/O=Repro/CN=alice" {
		t.Fatalf("identity %q", sess.Identity)
	}
	if _, err := w.agent.Upload(sess.ID, "siteA", "job.gsh",
		[]byte("echo result=${x}\ncompute 500ms\nwrite data.out 32\n")); err != nil {
		t.Fatal(err)
	}
	jobID, err := w.agent.Submit(sess.ID, &jsdl.Description{
		Executable: "job.gsh",
		Site:       "siteA",
		Arguments:  map[string]string{"x": "41"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tentative polling until terminal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := w.agent.Status(sess.ID, jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "DONE" {
			break
		}
		if st.State == "FAILED" || time.Now().After(deadline) {
			t.Fatalf("job state %s: %s", st.State, st.Message)
		}
		w.clock.Sleep(time.Millisecond)
	}
	out, err := w.agent.Output(sess.ID, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if out != "result=41\n" {
		t.Fatalf("output %q", out)
	}
	artifact, err := w.agent.OutputFile(sess.ID, jobID, "data.out")
	if err != nil || len(artifact) != 32 {
		t.Fatalf("artifact %d bytes, err %v", len(artifact), err)
	}
}

func TestAuthenticateBadPassphrase(t *testing.T) {
	w := newWorld(t)
	if _, err := w.agent.Authenticate("alice", "wrong", time.Hour); !errors.Is(err, myproxy.ErrBadPassphrase) {
		t.Fatalf("got %v", err)
	}
}

func TestAuthenticateAccountsCPUCost(t *testing.T) {
	w := newWorld(t)
	if _, err := w.agent.Authenticate("alice", "pw", time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(w.rec.Total(metrics.CPU)); got < 80*time.Millisecond {
		t.Fatalf("auth cost not accounted: %v", got)
	}
}

func TestSessionLifecycle(t *testing.T) {
	w := newWorld(t)
	sess, err := w.agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if w.agent.SessionCount() != 1 {
		t.Fatal("session not registered")
	}
	if _, err := w.agent.Session(sess.ID); err != nil {
		t.Fatal(err)
	}
	w.agent.Logout(sess.ID)
	if _, err := w.agent.Session(sess.ID); !errors.Is(err, ErrNoSession) {
		t.Fatalf("got %v", err)
	}
	if _, err := w.agent.Upload("ghost", "siteA", "f", nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("got %v", err)
	}
}

func TestSessionExpires(t *testing.T) {
	w := newWorld(t)
	sess, err := w.agent.Authenticate("alice", "pw", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.clock.Sleep(2 * time.Second)
	if _, err := w.agent.Session(sess.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("got %v", err)
	}
}

func TestUploadUnknownSite(t *testing.T) {
	w := newWorld(t)
	sess, _ := w.agent.Authenticate("alice", "pw", time.Hour)
	if _, err := w.agent.Upload(sess.ID, "atlantis", "f", []byte("x")); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("got %v", err)
	}
}

func TestSubmitForcesSessionOwner(t *testing.T) {
	w := newWorld(t)
	sess, _ := w.agent.Authenticate("alice", "pw", time.Hour)
	w.agent.Upload(sess.ID, "siteA", "e.gsh", []byte("echo x\n"))
	// Even a forged owner in the description submits as alice.
	jobID, err := w.agent.Submit(sess.ID, &jsdl.Description{
		Executable: "e.gsh", Site: "siteA", Owner: "/O=Repro/CN=mallory",
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := w.grid.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if job.Desc.Owner != "/O=Repro/CN=alice" {
		t.Fatalf("owner %q", job.Desc.Owner)
	}
}

func TestCancelThroughAgent(t *testing.T) {
	w := newWorld(t)
	sess, _ := w.agent.Authenticate("alice", "pw", time.Hour)
	w.agent.Upload(sess.ID, "siteA", "slow.gsh", []byte("emit 1s 1000 t\n"))
	jobID, err := w.agent.Submit(sess.ID, &jsdl.Description{Executable: "slow.gsh", Site: "siteA"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.agent.Cancel(sess.ID, jobID)
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	job, _ := w.grid.Job(jobID)
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not terminate job")
	}
	if job.State() != gridsim.Cancelled {
		t.Fatalf("state %s", job.State())
	}
}

func TestGridStatsAndSites(t *testing.T) {
	w := newWorld(t)
	sess, _ := w.agent.Authenticate("alice", "pw", time.Hour)
	stats, err := w.agent.GridStats(sess.ID)
	if err != nil || len(stats) != 2 {
		t.Fatalf("stats %v err %v", stats, err)
	}
	if got := w.agent.Sites(); len(got) != 2 || got[0] != "siteA" || got[1] != "siteB" {
		t.Fatalf("sites not sorted: %v", got)
	}
}

func TestAgentStatusBatchAndConditionalOutput(t *testing.T) {
	w := newWorld(t)
	sess, _ := w.agent.Authenticate("alice", "pw", time.Hour)
	w.agent.Upload(sess.ID, "siteA", "hi.gsh", []byte("echo hi\n"))
	jobID, err := w.agent.Submit(sess.ID, &jsdl.Description{Executable: "hi.gsh", Site: "siteA"})
	if err != nil {
		t.Fatal(err)
	}
	job, _ := w.grid.Job(jobID)
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job stuck")
	}
	entries, err := w.agent.StatusBatch(sess.ID, []string{jobID, "siteA:job-424242"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].State != "DONE" || entries[1].Error == "" {
		t.Fatalf("entries %+v", entries)
	}
	out, ver, changed, err := w.agent.OutputIfChanged(sess.ID, jobID, 0)
	if err != nil || !changed || out != "hi\n" || ver != entries[0].OutputVersion {
		t.Fatalf("fetch: out=%q ver=%d changed=%v err=%v", out, ver, changed, err)
	}
	if _, _, changed, err = w.agent.OutputIfChanged(sess.ID, jobID, ver); err != nil || changed {
		t.Fatalf("unchanged snapshot refetched: changed=%v err=%v", changed, err)
	}
	if _, err := w.agent.StatusBatch("no-such-session", []string{jobID}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("got %v", err)
	}
}

func TestSOAPFacade(t *testing.T) {
	w := newWorld(t)
	container := soap.NewServer(nil, metrics.Cost{})
	if err := container.Deploy(w.agent.SOAPService()); err != nil {
		t.Fatal(err)
	}
	c := soap.Client{HTTP: &http.Client{Transport: hop.NewTransport(w.net.DialContext)}}
	url := w.serve(t, container) + "/services/" + ServiceName

	sessID, err := c.Call(url, Namespace, "authenticate", []soap.Param{
		{Name: "user", Value: "alice"},
		{Name: "passphrase", Value: "pw"},
		{Name: "lifetimeSeconds", Value: "3600"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sessID, "sess-") {
		t.Fatalf("session %q", sessID)
	}

	data := base64.StdEncoding.EncodeToString([]byte("echo via-soap\n"))
	if _, err := c.Call(url, Namespace, "upload", []soap.Param{
		{Name: "session", Value: sessID},
		{Name: "site", Value: "siteA"},
		{Name: "name", Value: "s.gsh"},
		{Name: "dataBase64", Value: data},
	}, nil); err != nil {
		t.Fatal(err)
	}

	desc, _ := jsdl.Marshal(&jsdl.Description{
		Owner: "/O=Repro/CN=alice", Executable: "s.gsh", Site: "siteA",
	})
	jobID, err := c.Call(url, Namespace, "submit", []soap.Param{
		{Name: "session", Value: sessID},
		{Name: "jsdl", Value: string(desc)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		stJSON, err := c.Call(url, Namespace, "status", []soap.Param{
			{Name: "session", Value: sessID}, {Name: "job", Value: jobID},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var st gram.StatusReply
		if err := json.Unmarshal([]byte(stJSON), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "DONE" {
			break
		}
		if st.State == "FAILED" || time.Now().After(deadline) {
			t.Fatalf("state %+v", st)
		}
		w.clock.Sleep(time.Millisecond)
	}
	out, err := c.Call(url, Namespace, "output", []soap.Param{
		{Name: "session", Value: sessID}, {Name: "job", Value: jobID},
	}, nil)
	if err != nil || out != "via-soap\n" {
		t.Fatalf("output %q err %v", out, err)
	}
}

func TestSOAPFacadeFaults(t *testing.T) {
	w := newWorld(t)
	container := soap.NewServer(nil, metrics.Cost{})
	container.Deploy(w.agent.SOAPService())
	c := soap.Client{HTTP: &http.Client{Transport: hop.NewTransport(w.net.DialContext)}}
	url := w.serve(t, container) + "/services/" + ServiceName
	_, err := c.Call(url, Namespace, "authenticate", []soap.Param{
		{Name: "user", Value: "alice"},
		{Name: "passphrase", Value: "bad"},
		{Name: "lifetimeSeconds", Value: "60"},
	}, nil)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v", err)
	}
	_, err = c.Call(url, Namespace, "upload", []soap.Param{
		{Name: "session", Value: "ghost"},
		{Name: "site", Value: "siteA"},
		{Name: "name", Value: "f"},
		{Name: "dataBase64", Value: "!!!"},
	}, nil)
	if !errors.As(err, &f) {
		t.Fatalf("got %v", err)
	}
}

// TestExpiredSessionsAreReaped: nobody logs out a session whose owner has
// simply stopped using it — the core's session cache replaces one that
// nears the end of its proxy and forgets it — so the agent drops what has
// expired whenever somebody logs on. Fifteen logons, each after the
// previous proxy ran out, leave one session; a session whose proxy is
// still good (an invocation may be in flight on it) is never touched.
func TestExpiredSessionsAreReaped(t *testing.T) {
	clk := vtime.NewManual(time.Date(2010, 9, 13, 0, 0, 0, 0, time.UTC))
	ca, err := xsec.NewCA("CA", clk.Now(), 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mpSrv := myproxy.NewServer(clk)
	pipes := netsim.NewNet()
	ln := pipes.Listen()
	go mpSrv.Serve(ln)
	t.Cleanup(func() { mpSrv.Close() })
	alice, err := ca.IssueUser("alice", clk.Now(), 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&myproxy.Client{Addr: ln.Addr().String(), Dial: pipes.DialContext}).Put("alice", "pw", alice); err != nil {
		t.Fatal(err)
	}
	agent := New(Options{Endpoints: Endpoints{MyProxyAddr: ln.Addr().String()}, Clock: clk, Dial: pipes.DialContext})

	const lifetime = time.Hour
	var last *Session
	for i := 0; i < 15; i++ {
		if last, err = agent.Authenticate("alice", "pw", lifetime); err != nil {
			t.Fatal(err)
		}
		if got := agent.SessionCount(); got != 1 {
			t.Fatalf("after logon %d the agent holds %d sessions, want 1", i+1, got)
		}
		clk.Advance(lifetime + time.Minute)
	}
	if _, err := agent.Session(last.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("an expired session nobody has reaped yet: %v", err)
	}

	long, err := agent.Authenticate("alice", "pw", 100*lifetime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Session(last.ID); !errors.Is(err, ErrNoSession) {
		t.Fatalf("an expired session after the next logon: %v", err)
	}
	for i := 0; i < 15; i++ {
		if _, err := agent.Authenticate("alice", "pw", lifetime); err != nil {
			t.Fatal(err)
		}
		clk.Advance(lifetime + time.Minute)
		if sess, err := agent.Session(long.ID); err != nil || sess != long {
			t.Fatalf("logon %d took a valid session away: %v", i+1, err)
		}
	}
	if got := agent.SessionCount(); got != 2 {
		t.Fatalf("the agent holds %d sessions, want the long one and the last", got)
	}
	if agent.Logons() != 31 {
		t.Fatalf("%d logons counted, want 31", agent.Logons())
	}
}
