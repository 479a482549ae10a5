package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/soap"
)

// TestMain runs the package's tests under GOEXPERIMENT=synctest, where
// those that build a simulated grid run it in a bubble.
func TestMain(m *testing.M) { bubble.Main(m) }

// newShell boots a grid and an appliance on one in-process network, and a
// shell on them: call it in a bubble.
func newShell(t *testing.T) (*shell, *bytes.Buffer, *appliancetest.Fixture) {
	t.Helper()
	f := appliancetest.Boot(t, nil)
	var out bytes.Buffer
	return &shell{
		agentURL: f.App.BaseURL + "/services/" + cyberaide.ServiceName,
		client:   soap.Client{HTTP: f.Web},
		out:      &out,
	}, &out, f
}

// waitDone waits for the grid job to end and requires the shell's status
// of it to read DONE.
func waitDone(t *testing.T, f *appliancetest.Fixture, sh *shell, out *bytes.Buffer, jobID string) {
	t.Helper()
	job, err := f.Env.Grid.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	out.Reset()
	if err := sh.dispatch("status " + jobID); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DONE") {
		t.Fatalf("job ended: %q", out.String())
	}
}

func TestShellFullWorkflow(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		sh, out, f := newShell(t)

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

		waitDone(t, f, sh, out, jobID)
		out.Reset()
		if err := sh.dispatch("output " + jobID); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "shell says hello") {
			t.Fatalf("output %q", out.String())
		}
	})
}

func TestShellUsageAndReplicate(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		sh, out, f := newShell(t)
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
		waitDone(t, f, sh, out, strings.TrimPrefix(strings.TrimSpace(out.String()), "job "))
		out.Reset()
		if err := sh.dispatch("usage"); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "siteA") || !strings.Contains(out.String(), "jobs=1") {
			t.Fatalf("usage output %q", out.String())
		}
		// Replicate to a site the grid does not have: a clean error rather
		// than a hang.
		if err := sh.dispatch("replicate siteA nowhere acct.gsh"); err == nil {
			t.Fatal("replicate to unknown site succeeded")
		}
	})
}

func TestShellCancel(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
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
	})
}

func TestShellErrors(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
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
	})
}

func TestShellREPLQuit(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		sh, out, _ := newShell(t)
		sh.repl(strings.NewReader("help\nquit\n"))
		if !strings.Contains(out.String(), "commands:") {
			t.Fatalf("repl output %q", out.String())
		}
	})
}

func TestBaseName(t *testing.T) {
	if baseName("/a/b/c.gsh") != "c.gsh" || baseName("plain") != "plain" {
		t.Fatal("baseName wrong")
	}
}
