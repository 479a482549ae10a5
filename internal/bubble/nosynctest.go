//go:build !goexperiment.synctest

package bubble

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"strings"
)

// Run cannot make a bubble without the experiment: it exits the program.
func Run(f func()) {
	fmt.Fprintln(os.Stderr, "this program simulates in a testing/synctest bubble: build it with GOEXPERIMENT=synctest (go1.24)")
	os.Exit(2)
}

// Wait has no bubble to wait in: it exits the program, as Run does.
func Wait() { Run(nil) }

// forwarded are the go test flags Main hands on to its child.
var forwarded = map[string]bool{
	"bench": true, "benchtime": true, "count": true, "failfast": true,
	"run": true, "short": true, "skip": true, "timeout": true, "v": true,
}

// Main runs the package's tests, from TestMain, in a go test of the
// working directory (the package's own) with GOEXPERIMENT=synctest added,
// forwarding -race and the flags above, and exits with its status. A
// binary built for coverage exits 2 instead: the packages -coverpkg named
// are compiled into it, not passed to it, so the child could not measure
// what was asked, and a profile of nothing would pass for a run.
func Main(m interface{ Run() int }) {
	flag.Parse()
	for _, name := range []string{"test.gocoverdir", "test.coverprofile"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			fmt.Fprintln(os.Stderr, "bubble: coverage of these tests is measured only with GOEXPERIMENT=synctest set for the go test that builds them")
			os.Exit(2)
		}
	}
	args := []string{"test"}
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	flag.Visit(func(f *flag.Flag) {
		if name, ok := strings.CutPrefix(f.Name, "test."); ok && forwarded[name] {
			value := f.Value.String()
			if name == "v" && value != "false" {
				value = "true" // "test2json" under go test -json
			}
			args = append(args, "-"+name+"="+value)
		}
	})
	exp := strings.TrimPrefix(os.Getenv("GOEXPERIMENT")+",synctest", ",")
	fmt.Printf("bubble: go %s . with GOEXPERIMENT=%s\n", strings.Join(args, " "), exp)
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT="+exp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "bubble:", err)
		os.Exit(1)
	}
	os.Exit(cmd.ProcessState.ExitCode())
}
