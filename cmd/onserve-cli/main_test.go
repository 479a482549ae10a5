package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// bootAppliance starts a simulated grid and one traced appliance with
// user alice registered, on an event clock, and returns the appliance's
// base URL. The grid is on an in-process network; the appliance listens
// on loopback, where the CLI's own HTTP client reaches it.
func bootAppliance(t *testing.T) string {
	t.Helper()
	clk := vtime.NewAuto()
	t.Cleanup(clk.Stop)
	pipes := netsim.NewNet()
	env, err := gridenv.Start(gridenv.Options{Clock: clk, Net: pipes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "s3cret", 0); err != nil {
		t.Fatal(err)
	}
	img, err := appliance.BuildImage(appliance.Config{
		Endpoints:    env.Endpoints(),
		Clock:        clk,
		PollInterval: 3 * time.Second,
		Trace:        trace.NewCollector(0, 0),
		GridDial:     pipes.DialContext,
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := img.Boot(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Shutdown() })
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "s3cret"})
	return app.BaseURL
}

// TestCommandsEndToEnd drives the documented session — upload, list,
// invoke -wait, status, output, trace, delete — against an in-process
// appliance and holds every command to the output it has always printed.
func TestCommandsEndToEnd(t *testing.T) {
	base := bootAppliance(t)
	t.Setenv("ONSERVE_KEY", "")
	cli := func(args ...string) (string, error) {
		t.Helper()
		var out bytes.Buffer
		err := run(append([]string{"-portal", base}, args...), &out)
		return out.String(), err
	}
	must := func(args ...string) string {
		t.Helper()
		out, err := cli(args...)
		if err != nil {
			t.Fatalf("onserve-cli %s: %v", strings.Join(args, " "), err)
		}
		return out
	}

	file := filepath.Join(t.TempDir(), "pi.gsh")
	if err := os.WriteFile(file, []byte("compute 2s\necho pi is roughly 3.${digits}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := must("upload", "-file", file, "-user", "alice", "-desc", "pi estimator", "-param", "digits:int")
	want := "published PiService\n  key      uddi:[^\n]+\n  endpoint " + base + "/services/PiService\n  wsdl     " + base + "/services/PiService\\?wsdl\n"
	if !regexp.MustCompile("^" + want + "$").MatchString(out) {
		t.Errorf("upload printed %q, want a match of %q", out, want)
	}
	if out, want := must("list"), "PiService                    alice      pi estimator\n"; out != want {
		t.Errorf("list printed %q, want %q", out, want)
	}
	if out := must("describe", "-service", "PiService"); !strings.Contains(out, "  execute(digits int)\n") {
		t.Errorf("describe printed %q", out)
	}
	if out := must("discover", "-pattern", "Pi%"); !strings.HasPrefix(out, "PiService ") || !strings.Contains(out, "\n  "+base+"/services/PiService\n") {
		t.Errorf("discover printed %q", out)
	}
	if out, want := must("discover", "-pattern", "Nope%"), "no services match Nope%\n"; out != want {
		t.Errorf("discover printed %q, want %q", out, want)
	}

	out = must("invoke", "-service", "PiService", "-arg", "digits=14159", "-wait")
	m := regexp.MustCompile(`^ticket: (inv-\S+)\npi is roughly 3\.14159\n$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("invoke -wait printed %q", out)
	}
	ticket := m[1]
	if out := must("status", "-ticket", ticket); !strings.HasPrefix(out, "{") || !strings.Contains(out, `"DONE"`) || !strings.HasSuffix(out, "}\n") {
		t.Errorf("status printed %q", out)
	}
	if out, want := must("output", "-ticket", ticket), "pi is roughly 3.14159\n"; out != want {
		t.Errorf("output printed %q, want %q", out, want)
	}
	if out, want := must("cancel", "-ticket", ticket), `{"state":"cancelling"}`+"\n"; out != want {
		t.Errorf("cancel printed %q, want %q", out, want)
	}
	out = must("trace", "-ticket", ticket)
	if !regexp.MustCompile(`(?m)^onserve/invoke \d+\.\dms`).MatchString(out) || !regexp.MustCompile(`(?m)^  +\w+/[\w.]+ \d+\.\dms`).MatchString(out) {
		t.Errorf("trace printed no indented waterfall under onserve/invoke:\n%s", out)
	}

	// A value that holds query syntax is one value: it names nothing, where
	// pasted raw into the URL it would have named PiService.
	for _, args := range [][]string{
		{"delete", "-service", "PiService&x=1"},
		{"status", "-ticket", ticket + "&x=1"},
		{"cancel", "-ticket", ticket + "&x=1"},
		{"trace", "-ticket", ticket + "#x"},
	} {
		if _, err := cli(args...); err == nil || !strings.Contains(err.Error(), args[0]+" failed (404)") {
			t.Errorf("%s %s %q: %v, want a 404", args[0], args[1], args[2], err)
		}
	}
	if out := must("list"); !strings.HasPrefix(out, "PiService ") {
		t.Errorf("after deleting %q, list printed %q", "PiService&x=1", out)
	}

	if _, err := cli("audit"); err == nil || !strings.Contains(err.Error(), "audit log unavailable") {
		t.Errorf("audit without tenancy: %v", err)
	}
	if out, want := must("delete", "-service", "PiService"), "deleted PiService\n"; out != want {
		t.Errorf("delete printed %q, want %q", out, want)
	}
	if out := must("list"); out != "" {
		t.Errorf("list after delete printed %q", out)
	}
	for _, args := range [][]string{nil, {"frobnicate"}} {
		if _, err := cli(args...); err != errUsage {
			t.Errorf("%v: %v, want the usage error", args, err)
		}
	}
	if _, err := cli("invoke"); err == nil || err.Error() != "invoke needs -service" {
		t.Errorf("invoke without -service: %v", err)
	}
}
