package gridenv

import (
	"testing"
	"time"

	"repro/internal/gram"
	"repro/internal/gridsim"
	"repro/internal/jsdl"
	"repro/internal/myproxy"
	"repro/internal/netsim"
	"repro/internal/vtime"
)

func TestStartDefaultTeraGrid(t *testing.T) {
	env, err := Start(Options{Clock: vtime.NewScaled(20000)})
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
	clk := vtime.NewScaled(20000)
	env, err := Start(Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{{Name: "s", Nodes: 1, CoresPerNode: 2}},
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
	mp := &myproxy.Client{Addr: env.MyProxyAddr}
	proxy, err := mp.Get("dana", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// And the delegated proxy is accepted by the gatekeeper.
	if err := env.StageEverywhere(cred.Subject(), "e.gsh", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	gc := &gram.Client{BaseURL: env.GramURL, Cred: proxy}
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
}

func TestStageEverywhere(t *testing.T) {
	env, err := Start(Options{
		Clock: vtime.Real{},
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
	clk := vtime.NewScaled(100)
	env, err := Start(Options{
		Clock:   clk,
		Sites:   []gridsim.SiteConfig{{Name: "s", Nodes: 1, CoresPerNode: 1}},
		Profile: netsim.WAN(clk),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	// Just confirm the environment still functions with shaping on.
	if _, err := env.AddUser("u", "p", 0); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotentEnough(t *testing.T) {
	env, err := Start(Options{Sites: []gridsim.SiteConfig{{Name: "s", Nodes: 1, CoresPerNode: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	env.Close()
	env.Close() // second close must not panic
}
