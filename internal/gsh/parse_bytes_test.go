package gsh

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestParsePaddedProgramByteBudget: comments and padding are skipped on
// the bytes, so parsing a 1 MB padded executable allocates for its few
// statements, not for the megabyte.
func TestParsePaddedProgramByteBudget(t *testing.T) {
	src := Pad([]byte(benchProgram), 1<<20)
	got := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}).AllocedBytesPerOp()
	if got > 64<<10 {
		t.Fatalf("Parse of a %d B padded program allocates %d B, budget 64 KB", len(src), got)
	}
}

// TestParseLineNumbersCountSkippedLines: statement lines carry their
// position in the source, whatever was skipped above them.
func TestParseLineNumbersCountSkippedLines(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // substring of the error
		is   error
	}{
		{"# c\n\n   \n\t# indented comment\nbogus 1\n", "\"bogus\" at line 5", ErrSyntax},
		{"echo ok\r\n# c\r\ncompute nope\r\n", "at line 3", ErrSyntax},
		{"echo a\n\n\nend\n", "'end' without 'loop' at line 4", ErrUnbalanced},
		{"\n\nloop 2\n# never closed\necho x\n", "loop at line 3 never closed", ErrUnbalanced},
		{"loop 1\n\nloop 1\necho x\nend\n", "loop at line 1 never closed", ErrUnbalanced},
		{"echo last line has no newline\n#\nwrite f", "at line 3", ErrSyntax},
		{string(Pad([]byte("echo x\n"), 4096)) + "oops\n", "\"oops\" at line", ErrSyntax},
	} {
		_, err := Parse([]byte(tc.src))
		if err == nil || !errors.Is(err, tc.is) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v; want %v containing %q", tc.src, err, tc.is, tc.want)
		}
	}
}

// TestParseIgnoresWhatIsNotAStatement: blank lines, comments, CRLF line
// ends, indentation and a missing final newline change nothing.
func TestParseIgnoresWhatIsNotAStatement(t *testing.T) {
	want, err := Parse([]byte("compute 1s\nloop 2\necho a  b\nend\nwrite f 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"compute 1s\r\nloop 2\r\necho a  b\r\nend\r\nwrite f 10\r\n",
		"\n\n# head\ncompute 1s\n\n  loop 2\n\t echo   a \t b  \n#mid\n  end\n\nwrite f 10",
		"compute 1s\nloop 2\necho a  b\nend\nwrite f 10\n#tail\n\n\n",
		string(Pad([]byte("compute 1s\nloop 2\necho a  b\nend\nwrite f 10\n"), 8192)),
	} {
		got, err := Parse([]byte(src))
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if !reflect.DeepEqual(got.Stmts, want.Stmts) || got.SourceBytes != len(src) {
			t.Errorf("Parse(%q) = %+v, want statements %+v", src, got, want.Stmts)
		}
	}
	empty, err := Parse(nil)
	if err != nil || len(empty.Stmts) != 0 {
		t.Fatalf("Parse(nil) = %+v, %v", empty, err)
	}
	// '#' only opens a comment at the start of a line.
	hash, err := Parse([]byte("echo a # b\n"))
	if err != nil || hash.Stmts[0].Text != "a # b" {
		t.Fatalf("mid-line '#': %+v, %v", hash, err)
	}
}
