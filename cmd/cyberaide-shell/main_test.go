package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/cyberaide"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/vtime"
)

// newShell boots a grid and an appliance on an event clock, which it
// returns, and one in-process network, and a shell on them.
func newShell(t *testing.T) (*shell, *bytes.Buffer, *vtime.Auto) {
	t.Helper()
	clk := vtime.NewAuto()
	t.Cleanup(clk.Stop)
	pipes := netsim.NewNet()
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{{Name: "siteA", Nodes: 1, CoresPerNode: 4}},
		Net:   pipes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	img, err := appliance.BuildImage(appliance.Config{Endpoints: env.Endpoints(), Clock: clk, GridDial: pipes.DialContext})
	if err != nil {
		t.Fatal(err)
	}
	app, err := img.Boot(pipes.Listen())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Shutdown() })
	var out bytes.Buffer
	return &shell{
		agentURL: app.BaseURL + "/services/" + cyberaide.ServiceName,
		client:   soap.Client{HTTP: &http.Client{Transport: hop.NewTransport(pipes.DialContext)}},
		out:      &out,
	}, &out, clk
}

func TestShellFullWorkflow(t *testing.T) {
	sh, out, clk := newShell(t)

	// Session required before grid commands.
	if err := sh.dispatch("status x"); err == nil {
		t.Fatal("status worked without a session")
	}
	if err := sh.dispatch("auth alice pw"); err != nil {
		t.Fatal(err)
	}
	if sh.session == "" {
		t.Fatal("no session recorded")
	}

	// Stage a local file.
	dir := t.TempDir()
	path := filepath.Join(dir, "job.gsh")
	os.WriteFile(path, []byte("compute 500ms\necho shell says ${greeting}\n"), 0o644)
	if err := sh.dispatch("upload siteA " + path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "staged job.gsh") {
		t.Fatalf("output %q", out.String())
	}

	// Submit and find the job id in the output.
	out.Reset()
	if err := sh.dispatch("submit job.gsh siteA greeting=hello"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(out.String())
	jobID := strings.TrimPrefix(line, "job ")
	if !strings.HasPrefix(jobID, "siteA:job-") {
		t.Fatalf("job line %q", line)
	}

	// Poll until done.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out.Reset()
		if err := sh.dispatch("status " + jobID); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out.String(), "DONE") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %q", out.String())
		}
		clk.Sleep(100 * time.Millisecond)
	}

	out.Reset()
	if err := sh.dispatch("output " + jobID); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "shell says hello") {
		t.Fatalf("output %q", out.String())
	}
}

func TestShellUsageAndReplicate(t *testing.T) {
	sh, out, clk := newShell(t)
	sh.dispatch("auth alice pw")
	// Usage is empty before any job runs.
	out.Reset()
	if err := sh.dispatch("usage"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no usage recorded") {
		t.Fatalf("usage output %q", out.String())
	}
	// Stage, run, and check accounting.
	dir := t.TempDir()
	path := filepath.Join(dir, "acct.gsh")
	os.WriteFile(path, []byte("compute 2s\necho done\n"), 0o644)
	sh.dispatch("upload siteA " + path)
	out.Reset()
	sh.dispatch("submit acct.gsh siteA")
	jobID := strings.TrimPrefix(strings.TrimSpace(out.String()), "job ")
	deadline := time.Now().Add(5 * time.Second)
	for {
		out.Reset()
		sh.dispatch("status " + jobID)
		if strings.Contains(out.String(), "DONE") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %q", out.String())
		}
		clk.Sleep(100 * time.Millisecond)
	}
	out.Reset()
	if err := sh.dispatch("usage"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "siteA") || !strings.Contains(out.String(), "jobs=1") {
		t.Fatalf("usage output %q", out.String())
	}
	// Replicate needs a second site; this world has one, so expect a
	// clean error rather than a hang.
	if err := sh.dispatch("replicate siteA nowhere acct.gsh"); err == nil {
		t.Fatal("replicate to unknown site succeeded")
	}
}

func TestShellCancel(t *testing.T) {
	sh, out, _ := newShell(t)
	sh.dispatch("auth alice pw")
	dir := t.TempDir()
	path := filepath.Join(dir, "long.gsh")
	os.WriteFile(path, []byte("emit 1s 5000 t\n"), 0o644)
	if err := sh.dispatch("upload siteA " + path); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := sh.dispatch("submit long.gsh siteA"); err != nil {
		t.Fatal(err)
	}
	jobID := strings.TrimPrefix(strings.TrimSpace(out.String()), "job ")
	out.Reset()
	if err := sh.dispatch("cancel " + jobID); err != nil {
		t.Fatal(err)
	}
}

func TestShellErrors(t *testing.T) {
	sh, _, _ := newShell(t)
	if err := sh.dispatch("frobnicate"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := sh.dispatch("auth onlyuser"); err == nil {
		t.Fatal("bad auth arity accepted")
	}
	if err := sh.dispatch("auth alice wrongpass"); err == nil {
		t.Fatal("bad passphrase accepted")
	}
	sh.dispatch("auth alice pw")
	if err := sh.dispatch("upload siteA /does/not/exist.gsh"); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := sh.dispatch("submit e.gsh siteA not-a-kv"); err == nil {
		t.Fatal("bad kv accepted")
	}
	if err := sh.dispatch("help"); err != nil {
		t.Fatal(err)
	}
}

func TestShellREPLQuit(t *testing.T) {
	sh, out, _ := newShell(t)
	sh.repl(strings.NewReader("help\nquit\n"))
	if !strings.Contains(out.String(), "commands:") {
		t.Fatalf("repl output %q", out.String())
	}
}

func TestBaseName(t *testing.T) {
	if baseName("/a/b/c.gsh") != "c.gsh" || baseName("plain") != "plain" {
		t.Fatal("baseName wrong")
	}
}
