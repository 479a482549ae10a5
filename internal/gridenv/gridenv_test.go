package gridenv

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/gram"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/jsdl"
	"repro/internal/myproxy"
	"repro/internal/netsim"
)

// TestMain runs the tests that sleep on virtual time in a bubble, under
// GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestStartDefaultTeraGrid(t *testing.T) {
	env, err := Start(Options{Net: netsim.NewNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if len(env.Grid.SiteNames()) != 11 {
		t.Fatalf("sites %v", env.Grid.SiteNames())
	}
	if len(env.FTPURLs) != 11 {
		t.Fatalf("ftp urls %v", env.FTPURLs)
	}
	eps := env.Endpoints()
	if eps.GramURL == "" || eps.MyProxyAddr == "" || len(eps.FTPURLs) != 11 {
		t.Fatalf("endpoints %+v", eps)
	}
}

func TestAddUserAndAuthenticateThroughStack(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		pipes := netsim.NewNet()
		env, err := Start(Options{
			Sites: []gridsim.SiteConfig{{Name: "s", Nodes: 1, CoresPerNode: 2}},
			Net:   pipes,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		cred, err := env.AddUser("dana", "pw", time.Hour*24)
		if err != nil {
			t.Fatal(err)
		}
		if cred.Subject() != "/O=Repro/CN=dana" {
			t.Fatalf("subject %q", cred.Subject())
		}
		// The MyProxy server really holds the credential.
		mp := &myproxy.Client{Addr: env.MyProxyAddr, Dial: pipes.DialContext}
		proxy, err := mp.Get("dana", "pw", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		// And the delegated proxy is accepted by the gatekeeper.
		if err := env.StageEverywhere(cred.Subject(), "e.gsh", []byte("echo hi\n")); err != nil {
			t.Fatal(err)
		}
		gc := &gram.Client{BaseURL: env.GramURL, Cred: proxy, Transport: hop.NewTransport(pipes.DialContext)}
		id, err := gc.Submit(&jsdl.Description{Owner: cred.Subject(), Executable: "e.gsh", Site: "s"})
		if err != nil {
			t.Fatal(err)
		}
		job, err := env.Grid.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		st, err := gc.Status(id)
		if err != nil || st.State != "DONE" {
			t.Fatalf("job %v err %v", st, err)
		}
	})
}

func TestStageEverywhere(t *testing.T) {
	env, err := Start(Options{
		Sites: []gridsim.SiteConfig{
			{Name: "a", Nodes: 1, CoresPerNode: 1},
			{Name: "b", Nodes: 1, CoresPerNode: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := env.StageEverywhere("owner", "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, name := range env.Grid.SiteNames() {
		site, _ := env.Grid.Site(name)
		if _, err := site.Store().Size("owner", "f"); err != nil {
			t.Fatalf("site %s missing file: %v", name, err)
		}
	}
}

func TestShapedListeners(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		env, err := Start(Options{
			Sites:   []gridsim.SiteConfig{{Name: "s", Nodes: 1, CoresPerNode: 1}},
			Profile: netsim.WAN(),
			Net:     netsim.NewNet(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		// Just confirm the environment still functions with shaping on.
		if _, err := env.AddUser("u", "p", 0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCloseIdempotentEnough(t *testing.T) {
	env, err := Start(Options{Sites: []gridsim.SiteConfig{{Name: "s", Nodes: 1, CoresPerNode: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	env.Close()
	env.Close() // second close must not panic
}

// TestCloseDropsPooledConnections: a server that takes a closed
// environment's port is reached over a fresh connection, not over the one
// hop's shared transport pooled to the old server, whose peer is gone (a
// POST on it would fail). It is about TCP ports, so it boots on loopback.
func TestCloseDropsPooledConnections(t *testing.T) {
	env, err := Start(Options{Sites: []gridsim.SiteConfig{{Name: "s", Nodes: 1, CoresPerNode: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	root, err := url.Parse(env.GramURL)
	if err != nil {
		t.Fatal(err)
	}
	post := func() (hop.Reply, error) {
		return hop.Do(nil, http.MethodPost, root, "/gram/none", nil, []byte("ping"), 1<<10)
	}
	if _, err := post(); err != nil { // any reply pools the connection
		t.Fatal(err)
	}
	env.Close()
	ln, err := net.Listen("tcp", root.Host)
	if err != nil {
		t.Skipf("the closed environment's port was taken: %v", err)
	}
	next := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "new")
	}))
	next.Listener.Close()
	next.Listener = ln
	next.Start()
	defer next.Close()
	if rep, err := post(); err != nil || string(rep.Body) != "new" {
		t.Fatalf("POST to the port's new server: %q, %v", rep.Body, err)
	}
}
