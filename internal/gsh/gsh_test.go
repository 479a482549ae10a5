package gsh

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bubble"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

// TestMain runs the tests that sleep on virtual time in a bubble, under
// GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestParseBasicStatements(t *testing.T) {
	p := mustParse(t, `
# demo program
compute 500ms
sleep 1s
echo hello world
write out.dat 1024
emit 2s 3 tick
`)
	ops := make([]string, len(p.Stmts))
	for i, s := range p.Stmts {
		ops[i] = s.Op
	}
	want := []string{"compute", "sleep", "echo", "write", "emit"}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Fatalf("ops %v", ops)
	}
	if p.Stmts[0].Dur != 500*time.Millisecond {
		t.Fatalf("compute dur %v", p.Stmts[0].Dur)
	}
	if p.Stmts[3].Size != 1024 {
		t.Fatalf("write size %d", p.Stmts[3].Size)
	}
	if p.Stmts[4].Interval != 2*time.Second || p.Stmts[4].Count != 3 {
		t.Fatalf("emit %+v", p.Stmts[4])
	}
}

func TestParseLoop(t *testing.T) {
	p := mustParse(t, "loop 3\n  echo x\n  compute 1ms\nend\n")
	if len(p.Stmts) != 1 || p.Stmts[0].Op != "loop" || p.Stmts[0].Count != 3 {
		t.Fatalf("stmts %+v", p.Stmts)
	}
	if len(p.Stmts[0].Body) != 2 {
		t.Fatalf("body %+v", p.Stmts[0].Body)
	}
}

func TestParseNestedLoop(t *testing.T) {
	p := mustParse(t, "loop 2\nloop 3\necho y\nend\nend\n")
	if p.Stmts[0].Body[0].Op != "loop" {
		t.Fatal("nested loop lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"frobnicate":          "unknown statement",
		"compute":             "wants 1 argument",
		"compute banana":      "bad duration",
		"compute -5s":         "bad duration",
		"compute 48h":         "exceeds 24h",
		"write out.dat":       "wants <name> <bytes>",
		"write out.dat -1":    "bad write size",
		"write out.dat 1e9":   "bad write size",
		"emit 1s":             "wants <interval> <count>",
		"emit 1s nope x":      "bad count",
		"loop 5\necho x":      "never closed",
		"end":                 "'end' without 'loop'",
		"loop banana\nend":    "bad count",
		"loop 200000\nend":    "bad count",
		"loop 2\nloop 2\nend": "never closed",
	}
	for src, wantSub := range cases {
		_, err := Parse([]byte(src))
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", src, wantSub)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", src, err, wantSub)
		}
	}
}

func TestParseDeepNestingRejected(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < MaxLoopDepth+1; i++ {
		sb.WriteString("loop 1\n")
	}
	sb.WriteString("echo x\n")
	for i := 0; i < MaxLoopDepth+1; i++ {
		sb.WriteString("end\n")
	}
	if _, err := Parse([]byte(sb.String())); !errors.Is(err, ErrLimits) {
		t.Fatalf("got %v", err)
	}
}

func TestParseSizeLimit(t *testing.T) {
	big := make([]byte, MaxProgramBytes+1)
	if _, err := Parse(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestRunEchoAndExpansion(t *testing.T) {
	p := mustParse(t, "echo hello ${who} from ${where}\n")
	var out bytes.Buffer
	err := p.Run(&Env{Args: map[string]string{"who": "alice"}, Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "hello alice from \n" {
		t.Fatalf("stdout %q", got)
	}
}

func TestRunComputeUsesCPUHook(t *testing.T) {
	p := mustParse(t, "compute 3s\ncompute 2s\n")
	var total time.Duration
	err := p.Run(&Env{CPU: func(d time.Duration) { total += d }})
	if err != nil {
		t.Fatal(err)
	}
	if total != 5*time.Second {
		t.Fatalf("cpu hook saw %v", total)
	}
}

// flushLog is a Stdout that logs each Write as W and each Flush as F.
type flushLog struct{ ops string }

func (l *flushLog) Write(p []byte) (int, error) { l.ops += "W"; return len(p), nil }
func (l *flushLog) Flush()                      { l.ops += "F" }

// TestRunFlushesBeforeEachWait: a Stdout that can be flushed is flushed
// before every wait on the clock and once at the end, so what was written
// before a flush is everything the program writes at that instant.
func TestRunFlushesBeforeEachWait(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		p := mustParse(t, "echo a\necho b\ncompute 1s\necho c\nemit 1s 2 d\necho e\n")
		var out flushLog
		if err := p.Run(&Env{Stdout: &out, CPU: func(time.Duration) {}}); err != nil {
			t.Fatal(err)
		}
		if want := "WWFWFWFWWF"; out.ops != want {
			t.Fatalf("writes and flushes %q, want %q", out.ops, want)
		}
	})
}

func TestRunSleepUsesClock(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		p := mustParse(t, "sleep 10s\n")
		start := time.Now()
		if err := p.Run(&Env{}); err != nil {
			t.Fatal(err)
		}
		if slept := time.Since(start); slept != 10*time.Second {
			t.Fatalf("sleep 10s moved the clock %v", slept)
		}
	})
}

func TestRunWrite(t *testing.T) {
	p := mustParse(t, "write result-${run}.dat 2048\n")
	files := map[string]int{}
	err := p.Run(&Env{
		Args:      map[string]string{"run": "7"},
		WriteFile: func(name string, data []byte) error { files[name] = len(data); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if files["result-7.dat"] != 2048 {
		t.Fatalf("files %v", files)
	}
}

func TestRunWriteErrorPropagates(t *testing.T) {
	p := mustParse(t, "write x 1\n")
	wantErr := errors.New("disk full")
	err := p.Run(&Env{WriteFile: func(string, []byte) error { return wantErr }})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v", err)
	}
}

func TestRunReadAndProcess(t *testing.T) {
	p := mustParse(t, "read input-${i}.dat\nprocess input-${i}.dat 100\n")
	var out bytes.Buffer
	var cpu time.Duration
	files := map[string][]byte{"input-3.dat": make([]byte, 200<<10)} // 200 KB
	env := &Env{
		Args:   map[string]string{"i": "3"},
		Stdout: &out,
		CPU:    func(d time.Duration) { cpu += d },
		ReadFile: func(name string) ([]byte, error) {
			data, ok := files[name]
			if !ok {
				return nil, errors.New("no such input")
			}
			return data, nil
		},
	}
	if err := p.Run(env); err != nil {
		t.Fatal(err)
	}
	want := "read input-3.dat: 204800 bytes\nprocess input-3.dat: 204800 bytes\n"
	if out.String() != want {
		t.Fatalf("stdout %q", out.String())
	}
	// 200 KB at 100 KB/s = 2s of CPU.
	if cpu != 2*time.Second {
		t.Fatalf("cpu %v, want 2s", cpu)
	}
}

func TestRunReadMissingInput(t *testing.T) {
	p := mustParse(t, "read nope.dat\n")
	err := p.Run(&Env{ReadFile: func(string) ([]byte, error) { return nil, errors.New("gone") }})
	if err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("got %v", err)
	}
	if err := p.Run(&Env{}); !errors.Is(err, ErrNoInput) {
		t.Fatalf("got %v", err)
	}
}

func TestParseReadProcessErrors(t *testing.T) {
	for src, want := range map[string]string{
		"read":            "wants <name>",
		"read a b":        "wants <name>",
		"process f":       "wants <name> <kb-per-sec>",
		"process f zero":  "bad process rate",
		"process f 0":     "bad process rate",
		"process f -5":    "bad process rate",
		"process f 1 2 3": "wants <name> <kb-per-sec>",
	} {
		if _, err := Parse([]byte(src)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) err %v, want %q", src, err, want)
		}
	}
}

func TestRunFail(t *testing.T) {
	p := mustParse(t, "fail boom ${code}\n")
	err := p.Run(&Env{Args: map[string]string{"code": "42"}})
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("got %v", err)
	}
	if !strings.Contains(err.Error(), "boom 42") {
		t.Fatalf("message lost: %v", err)
	}
}

func TestRunLoop(t *testing.T) {
	p := mustParse(t, "loop 4\necho tick\nend\n")
	var out bytes.Buffer
	if err := p.Run(&Env{Stdout: &out}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "tick"); got != 4 {
		t.Fatalf("loop ran %d times", got)
	}
}

func TestRunEmitPacedOnClock(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		p := mustParse(t, "emit 3s 4 out\n")
		var out bytes.Buffer
		start := time.Now()
		if err := p.Run(&Env{Stdout: &out}); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed != 12*time.Second {
			t.Fatalf("emit finished in %v, want 12s", elapsed)
		}
		if got := strings.Count(out.String(), "out"); got != 4 {
			t.Fatalf("emitted %d lines", got)
		}
	})
}

func TestRunStepLimit(t *testing.T) {
	// 100k * 100k iterations would exceed MaxSteps quickly.
	p := mustParse(t, "loop 100000\nloop 100000\necho x\nend\nend\n")
	err := p.Run(&Env{Stdout: nil})
	if !errors.Is(err, ErrLimits) {
		t.Fatalf("got %v", err)
	}
}

func TestExpand(t *testing.T) {
	args := map[string]string{"a": "1", "b": "2"}
	cases := map[string]string{
		"plain":        "plain",
		"${a}":         "1",
		"${a}+${b}":    "1+2",
		"${missing}x":  "x",
		"${unclosed":   "${unclosed",
		"pre${a}post":  "pre1post",
		"${a}${b}${a}": "121",
	}
	for in, want := range cases {
		if got := Expand(in, args); got != want {
			t.Errorf("Expand(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPadProducesValidProgramOfSize(t *testing.T) {
	src := []byte("compute 1s\necho done\n")
	padded := Pad(src, 100_000)
	if len(padded) < 100_000 {
		t.Fatalf("padded to %d bytes", len(padded))
	}
	p, err := Parse(padded)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stmts) != 2 {
		t.Fatalf("padding changed semantics: %d stmts", len(p.Stmts))
	}
}

func TestPadNoopWhenAlreadyBigEnough(t *testing.T) {
	src := []byte("echo x\n")
	if got := Pad(src, 3); len(got) != len(src) {
		t.Fatal("pad grew an already-large program")
	}
}

// Property: parsing the same source twice yields the same statement
// structure, and padding never alters it.
func TestPropertyPadPreservesSemantics(t *testing.T) {
	f := func(computeMs uint16, loops uint8, extra uint16) bool {
		src := []byte(
			"compute " + (time.Duration(computeMs%5000) * time.Millisecond).String() + "\n" +
				"loop " + strconv.Itoa(int(loops%50)) + "\necho x\nend\n")
		p1, err := Parse(src)
		if err != nil {
			return false
		}
		p2, err := Parse(Pad(src, len(src)+int(extra)))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p1.Stmts, p2.Stmts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
