package gsh

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// instantClock makes sleep/emit statements free so fuzzed programs run
// in microseconds instead of real time.
type instantClock struct{ now time.Time }

func (c *instantClock) Now() time.Time        { return c.now }
func (c *instantClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }
func (c *instantClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.now = c.now.Add(d)
	ch <- c.now
	return ch
}

func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"echo hello\n",
		"compute 1s\nsleep 2s\n",
		"loop 3\necho x\nend\n",
		"loop 3\nloop 2\nwrite f 10\nend\nend\n",
		"emit 1s 5 tick tock\n",
		"fail with a message\n",
		"# comment only\n",
		"write ${name}.dat 4096\n",
		"compute -1s\n",
		"loop\nend\n",
		"end\n",
		"loop 999999999999\nend\n",
		"compute 99999h\n",
		"\x00\x01\x02",
		"echo \xff\xfe",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		// Anything that parses must also report a non-negative duration
		// and survive a dry run under a no-op environment.
		if prog.TotalDuration() < 0 {
			t.Fatalf("negative duration for %q", src)
		}
		env := &Env{
			Clock:     &instantClock{},
			CPU:       func(time.Duration) {},
			WriteFile: func(string, []byte) error { return nil },
		}
		// Bound runaway programs with the interpreter's own step limit;
		// Run must return, not panic.
		_ = prog.Run(env)
	})
}

// scanSplit writes src to a Scanner in pieces: cuts[i] is the length of
// the i-th piece (zero is an empty Write), and what is left when the cuts
// run out goes in one.
func scanSplit(src, cuts []byte) (*Scanner, *Program, error) {
	var s Scanner
	for _, n := range cuts {
		n := min(int(n), len(src))
		s.Write(src[:n])
		src = src[n:]
	}
	s.Write(src)
	prog, err := s.Program()
	return &s, prog, err
}

// statementLinesOf is the reference the Scanner is held to, a walk over
// the program held whole: cut at every newline, trim, keep what is neither
// empty nor a comment.
func statementLinesOf(src []byte) []srcLine {
	var out []srcLine
	for no := 1; ; no++ {
		line, rest, more := bytes.Cut(src, []byte{'\n'})
		if line = bytes.TrimSpace(line); len(line) > 0 && line[0] != '#' {
			out = append(out, srcLine{text: string(line), no: no})
		}
		if !more {
			return out
		}
		src = rest
	}
}

// FuzzScannerSplits: a program means the same however it arrives. Any
// split of src into Writes keeps the statement lines, under the line
// numbers, that one Write keeps — the ones the whole-slice reference
// keeps — and parses to the same Program or fails with the same error.
func FuzzScannerSplits(f *testing.F) {
	for _, seed := range []struct{ src, cuts string }{
		{"compute 1s\nloop 2\necho a  b\nend\nwrite f 10\n", "\x03\x00\x09"},
		{"echo ok\r\n# c\r\ncompute nope\r\n", "\x07\x01\x01\x03"},            // CR and LF in different Writes
		{"echo last line has no newline\n#\nwrite f", "\x1e\x02\x03"},         // the error is on a line with no end
		{"echo a\n  \t  # a comment behind blanks\necho b\n", "\x07\x03\x03"}, // the '#' comes a Write after its blanks
		{"echo a\n  # behind a blank that is not ASCII\nbogus\n", "\x08\x01\x01"},
		{"\n\nloop 2\n# never closed\necho x", "\x01\x01\x01\x01"},
		{"echo a # b\n#\n\n", ""},
		{string(Pad([]byte("echo x\n"), 300)) + "oops\n", "\x40\x40\x40\x40"},
		{"", "\x00\x00"},
	} {
		f.Add([]byte(seed.src), []byte(seed.cuts))
	}
	f.Fuzz(func(t *testing.T, src, cuts []byte) {
		whole, wantProg, wantErr := scanSplit(src, nil)
		if want := statementLinesOf(src); !reflect.DeepEqual(whole.lines, want) {
			t.Fatalf("%q in one Write keeps the lines\n  %+v\nthe whole-slice reference keeps\n  %+v", src, whole.lines, want)
		}
		split, gotProg, gotErr := scanSplit(src, cuts)
		if !reflect.DeepEqual(split.lines, whole.lines) {
			t.Fatalf("%q cut at %v keeps the lines\n  %+v\nin one Write\n  %+v", src, cuts, split.lines, whole.lines)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotProg, wantProg) {
			t.Fatalf("%q cut at %v parses to %+v, %v; in one Write to %+v, %v", src, cuts, gotProg, gotErr, wantProg, wantErr)
		}
	})
}
