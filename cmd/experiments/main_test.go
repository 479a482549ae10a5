package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bubble"
	"repro/internal/experiments"
)

// TestMain runs the package's tests under GOEXPERIMENT=synctest, where a
// study's rig takes its bubble.
func TestMain(m *testing.M) { bubble.Main(m) }

func firstLine(t *testing.T, path string) string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	return line
}

func TestRunFigureWritesItsCSV(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-fig", "6", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(out, "fig6.csv")
	if got, want := firstLine(t, path), firstLine(t, "../../results/fig6.csv"); got != want {
		t.Fatalf("fig6.csv header %q, checked-in %q", got, want)
	}
	if !strings.Contains(stdout.String(), "== fig6:") || !strings.Contains(stdout.String(), "wrote "+path) {
		t.Fatalf("output:\n%s", stdout.String())
	}
	if entries, _ := os.ReadDir(out); len(entries) != 1 {
		t.Fatalf("-fig 6 wrote %d files, want only fig6.csv", len(entries))
	}
}

func TestRunNothingSelectedNamesEveryStudy(t *testing.T) {
	err := run([]string{"-out", t.TempDir()}, io.Discard)
	if err == nil {
		t.Fatal("no selection accepted")
	}
	for _, s := range experiments.Studies {
		flagName := "-" + s.Name
		if figureNumber(s) != 0 {
			flagName = "-fig N"
		}
		if !strings.Contains(err.Error(), flagName) {
			t.Errorf("message %q does not name %s", err, flagName)
		}
	}
	if !strings.Contains(err.Error(), "-all") {
		t.Errorf("message %q does not name -all", err)
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
