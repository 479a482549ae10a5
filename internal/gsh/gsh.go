// Package gsh defines the grid-shell task language used as the portable
// "executable" format of this reproduction. The paper's users upload
// native binaries that TeraGrid nodes run; shipping native binaries is not
// reproducible, so uploaded executables here are small gsh programs that
// grid worker nodes interpret. A gsh program exercises the same observable
// behaviours as the paper's jobs: it burns CPU, writes output files,
// emits stdout periodically (which the onServe client polls tentatively,
// reproducing the periodic disk-write peaks of Fig. 6), sleeps, and can
// fail.
//
// Grammar (one statement per line, '#' comments, ${name} parameter
// expansion at execution time):
//
//	compute <duration>            burn CPU for the given duration
//	sleep <duration>              idle without CPU use
//	echo <text...>                append a line to stdout
//	write <name> <bytes>          write an output file of the given size
//	read <name>                   read a staged input file; reports its size
//	process <name> <kb-per-sec>   read a staged input and burn CPU
//	                              proportional to its size
//	emit <interval> <count> <text...>
//	                              append text to stdout every interval,
//	                              count times (periodic output)
//	fail <text...>                terminate the job with a failure
//	loop <n>                      repeat the block until matching 'end'
//	end                           close the innermost loop
package gsh

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Limits protecting the interpreter from hostile programs.
const (
	MaxProgramBytes = 64 << 20
	MaxWriteBytes   = 64 << 20
	MaxLoopCount    = 100_000
	MaxLoopDepth    = 8
	MaxSteps        = 10_000_000
)

// Errors.
var (
	ErrTooLarge   = errors.New("gsh: program exceeds size limit")
	ErrSyntax     = errors.New("gsh: syntax error")
	ErrLimits     = errors.New("gsh: program exceeds execution limits")
	ErrJobFailed  = errors.New("gsh: job failed")
	ErrUnbalanced = errors.New("gsh: unbalanced loop/end")
)

// Stmt is one executable statement.
type Stmt struct {
	Op       string // compute, sleep, echo, write, emit, fail, loop
	Dur      time.Duration
	Interval time.Duration
	Count    int64
	Name     string
	Size     int64
	Text     string
	Body     []Stmt // loop body
}

// Program is a parsed gsh program.
type Program struct {
	Stmts []Stmt
	// Source size in bytes, retained so schedulers can reason about the
	// original upload size.
	SourceBytes int
}

// Parse parses src, validating statically checkable limits. It is a
// Scanner fed one Write.
func Parse(src []byte) (*Program, error) {
	var s Scanner
	s.Write(src)
	return s.Program()
}

// srcLine is one statement line: trimmed text and 1-based line number.
type srcLine struct {
	text string
	no   int
}

// Scanner parses a program that arrives in pieces: Write it the source in
// any split, then ask for the Program. It keeps the statement lines only.
// Blank lines and comments are dropped on the bytes as they pass, so the
// padding of a padded executable — all of a 1 MB upload but a few lines —
// is never held, let alone copied into a string. The zero value is ready.
type Scanner struct {
	lines []srcLine
	// line holds the current line from its first non-blank byte on, while
	// that line may still be a statement and its end has not arrived.
	line  []byte
	where int   // atLineStart, inComment or inText
	ended int   // line ends seen
	size  int64 // bytes written
}

// Where the scanner stands in the current line.
const (
	atLineStart = iota // nothing but ASCII blanks so far
	inComment          // behind a '#': dropping up to the line end
	inText             // behind anything else: keeping up to the line end
)

// Write scans the next piece of the source. The first byte past
// MaxProgramBytes is ErrTooLarge, then and on every later call.
func (s *Scanner) Write(p []byte) (int, error) {
	if s.size += int64(len(p)); s.size > MaxProgramBytes {
		s.lines, s.line = nil, nil
		return 0, ErrTooLarge
	}
	n := len(p)
	for len(p) > 0 {
		if s.where == atLineStart {
			for len(p) > 0 && (p[0] == ' ' || p[0] == '\t' || p[0] == '\r' || p[0] == '\v' || p[0] == '\f') {
				p = p[1:]
			}
			if len(p) == 0 {
				break
			}
			if p[0] == '#' {
				s.where = inComment
			} else if p[0] != '\n' {
				s.where = inText
			}
		}
		rest, end := p, bytes.IndexByte(p, '\n')
		if end >= 0 {
			rest = p[:end]
		}
		if s.where == inText && (end < 0 || len(s.line) > 0) {
			s.line = append(s.line, rest...) // a line that spans Writes
			rest = s.line
		}
		if end < 0 {
			break
		}
		s.endLine(rest)
		p = p[end+1:]
	}
	return n, nil
}

// endLine closes the current line, text being what was kept of it. A
// comment can still surface here, behind blanks that are not ASCII.
func (s *Scanner) endLine(text []byte) {
	s.ended++
	if s.where == inText {
		if text = bytes.TrimSpace(text); len(text) > 0 && text[0] != '#' {
			s.lines = append(s.lines, srcLine{text: string(text), no: s.ended})
		}
		s.line = s.line[:0]
	}
	s.where = atLineStart
}

// Program parses what was written, validating statically checkable
// limits. It ends the source: a last line needs no newline.
func (s *Scanner) Program() (*Program, error) {
	if s.size > MaxProgramBytes {
		return nil, ErrTooLarge
	}
	if s.where != atLineStart {
		s.endLine(s.line)
		s.ended-- // the line had no end of its own; asked again, nothing moves
	}
	stmts, rest, err := parseBlock(s.lines, 0, 0)
	if err != nil {
		return nil, err
	}
	if rest != len(s.lines) {
		return nil, fmt.Errorf("%w: 'end' without 'loop' at line %d", ErrUnbalanced, s.lines[rest].no)
	}
	return &Program{Stmts: stmts, SourceBytes: int(s.size)}, nil
}

// parseBlock parses statements from line index i until EOF or a matching
// 'end', returning the next unconsumed line index.
func parseBlock(lines []srcLine, i, depth int) ([]Stmt, int, error) {
	var out []Stmt
	for ; i < len(lines); i++ {
		fields := strings.Fields(lines[i].text)
		op := fields[0]
		args := fields[1:]
		lineNo := lines[i].no
		switch op {
		case "end":
			if depth == 0 {
				return out, i, nil // caller at depth 0 treats this as error
			}
			return out, i + 1, nil
		case "loop":
			if depth+1 > MaxLoopDepth {
				return nil, 0, fmt.Errorf("%w: loop nesting exceeds %d at line %d", ErrLimits, MaxLoopDepth, lineNo)
			}
			n, err := parseCount(args, lineNo)
			if err != nil {
				return nil, 0, err
			}
			body, next, err := parseBlock(lines, i+1, depth+1)
			if err != nil {
				return nil, 0, err
			}
			if next > len(lines) { // the body ran off the end of input
				return nil, 0, fmt.Errorf("%w: loop at line %d never closed", ErrUnbalanced, lineNo)
			}
			out = append(out, Stmt{Op: "loop", Count: n, Body: body})
			i = next - 1
		case "compute", "sleep":
			if len(args) != 1 {
				return nil, 0, fmt.Errorf("%w: %s wants 1 argument at line %d", ErrSyntax, op, lineNo)
			}
			d, err := parseDur(args[0], lineNo)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, Stmt{Op: op, Dur: d})
		case "echo", "fail":
			out = append(out, Stmt{Op: op, Text: strings.Join(args, " ")})
		case "write":
			if len(args) != 2 {
				return nil, 0, fmt.Errorf("%w: write wants <name> <bytes> at line %d", ErrSyntax, lineNo)
			}
			size, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil || size < 0 || size > MaxWriteBytes {
				return nil, 0, fmt.Errorf("%w: bad write size %q at line %d", ErrSyntax, args[1], lineNo)
			}
			out = append(out, Stmt{Op: "write", Name: args[0], Size: size})
		case "read":
			if len(args) != 1 {
				return nil, 0, fmt.Errorf("%w: read wants <name> at line %d", ErrSyntax, lineNo)
			}
			out = append(out, Stmt{Op: "read", Name: args[0]})
		case "process":
			if len(args) != 2 {
				return nil, 0, fmt.Errorf("%w: process wants <name> <kb-per-sec> at line %d", ErrSyntax, lineNo)
			}
			rate, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil || rate <= 0 {
				return nil, 0, fmt.Errorf("%w: bad process rate %q at line %d", ErrSyntax, args[1], lineNo)
			}
			out = append(out, Stmt{Op: "process", Name: args[0], Size: rate})
		case "emit":
			if len(args) < 3 {
				return nil, 0, fmt.Errorf("%w: emit wants <interval> <count> <text> at line %d", ErrSyntax, lineNo)
			}
			iv, err := parseDur(args[0], lineNo)
			if err != nil {
				return nil, 0, err
			}
			n, err := parseCount(args[1:2], lineNo)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, Stmt{Op: "emit", Interval: iv, Count: n, Text: strings.Join(args[2:], " ")})
		default:
			return nil, 0, fmt.Errorf("%w: unknown statement %q at line %d", ErrSyntax, op, lineNo)
		}
	}
	if depth > 0 {
		return nil, len(lines) + 1, nil // unbalanced, caught by caller
	}
	return out, len(lines), nil
}

func parseDur(s string, line int) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("%w: bad duration %q at line %d", ErrSyntax, s, line)
	}
	if d > 24*time.Hour {
		return 0, fmt.Errorf("%w: duration %v exceeds 24h at line %d", ErrLimits, d, line)
	}
	return d, nil
}

func parseCount(args []string, line int) (int64, error) {
	if len(args) < 1 {
		return 0, fmt.Errorf("%w: missing count at line %d", ErrSyntax, line)
	}
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || n < 0 || n > MaxLoopCount {
		return 0, fmt.Errorf("%w: bad count %q at line %d", ErrSyntax, args[0], line)
	}
	return n, nil
}

// Env provides the execution environment a worker node exposes to a job.
type Env struct {
	// Args are the invocation parameters substituted into ${name}.
	Args map[string]string
	// Stdout receives echo/emit output. One with a Flush() method is
	// flushed before each wait on the clock, and at the end.
	Stdout io.Writer
	// CPU is invoked for compute statements; the worker wires this to its
	// CPU model. Nil falls back to time.Sleep.
	CPU func(d time.Duration)
	// WriteFile persists an output artifact. Nil discards writes.
	WriteFile func(name string, data []byte) error
	// ReadFile loads a staged input file (read/process statements). Nil
	// makes every read fail, as on a node with no staging area.
	ReadFile func(name string) ([]byte, error)
	// Done, when non-nil and closed, cancels execution at the next
	// statement boundary (walltime limits, job cancellation).
	Done <-chan struct{}
}

// ErrCancelled reports that execution was stopped through Env.Done.
var ErrCancelled = errors.New("gsh: execution cancelled")

// ErrNoInput reports a read/process statement on a node without staging.
var ErrNoInput = errors.New("gsh: no staged input available")

// wait flushes Stdout and blocks the program for d on the clock: compute
// time when cpu is set and so is CPU.
func (e *Env) wait(d time.Duration, cpu bool) {
	if d > 0 {
		e.flush()
	}
	if cpu && e.CPU != nil {
		e.CPU(d)
		return
	}
	time.Sleep(d)
}

// flush flushes Stdout, if it can be.
func (e *Env) flush() {
	if f, ok := e.Stdout.(interface{ Flush() }); ok {
		f.Flush()
	}
}

func (e *Env) cancelled() bool {
	if e.Done == nil {
		return false
	}
	select {
	case <-e.Done:
		return true
	default:
		return false
	}
}

// Run executes the program. It returns ErrJobFailed (wrapped with the
// program's message) when a fail statement executes.
func (p *Program) Run(env *Env) error {
	steps := 0
	defer env.flush()
	return runBlock(p.Stmts, env, &steps)
}

func runBlock(stmts []Stmt, env *Env, steps *int) error {
	for i := range stmts {
		if *steps++; *steps > MaxSteps {
			return fmt.Errorf("%w: more than %d steps", ErrLimits, MaxSteps)
		}
		if env.cancelled() {
			return ErrCancelled
		}
		s := &stmts[i]
		switch s.Op {
		case "compute":
			env.wait(s.Dur, true)
		case "sleep":
			env.wait(s.Dur, false)
		case "echo":
			if env.Stdout != nil {
				fmt.Fprintln(env.Stdout, Expand(s.Text, env.Args))
			}
		case "write":
			if env.WriteFile != nil {
				name := Expand(s.Name, env.Args)
				if err := env.WriteFile(name, make([]byte, s.Size)); err != nil {
					return fmt.Errorf("gsh: write %s: %w", name, err)
				}
			}
		case "read", "process":
			name := Expand(s.Name, env.Args)
			if env.ReadFile == nil {
				return fmt.Errorf("gsh: read %s: %w", name, ErrNoInput)
			}
			data, err := env.ReadFile(name)
			if err != nil {
				return fmt.Errorf("gsh: read %s: %w", name, err)
			}
			if s.Op == "process" {
				// Size/rate of CPU-bound work; rate is KB per second.
				env.wait(time.Duration(float64(len(data))/float64(s.Size<<10)*float64(time.Second)), true)
			}
			if env.Stdout != nil {
				fmt.Fprintf(env.Stdout, "%s %s: %d bytes\n", s.Op, name, len(data))
			}
		case "emit":
			text := Expand(s.Text, env.Args)
			for n := int64(0); n < s.Count; n++ {
				env.wait(s.Interval, false)
				if env.cancelled() {
					return ErrCancelled
				}
				if env.Stdout != nil {
					fmt.Fprintln(env.Stdout, text)
				}
			}
		case "fail":
			return fmt.Errorf("%w: %s", ErrJobFailed, Expand(s.Text, env.Args))
		case "loop":
			for n := int64(0); n < s.Count; n++ {
				if err := runBlock(s.Body, env, steps); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Expand substitutes ${name} with args[name]; unknown names expand empty.
func Expand(s string, args map[string]string) string {
	if !strings.Contains(s, "${") {
		return s
	}
	var sb strings.Builder
	for {
		i := strings.Index(s, "${")
		if i < 0 {
			sb.WriteString(s)
			return sb.String()
		}
		j := strings.Index(s[i:], "}")
		if j < 0 {
			sb.WriteString(s)
			return sb.String()
		}
		sb.WriteString(s[:i])
		sb.WriteString(args[s[i+2:i+j]])
		s = s[i+j+1:]
	}
}

// Pad returns src extended with comment lines until it is at least size
// bytes, while remaining a valid program. The figure experiments use this
// to build the paper's "~5MB" executable whose content is irrelevant but
// whose transfer and storage costs are the point. Padding is filled from
// a deterministic PRNG rendered as base64-ish text so it is essentially
// incompressible — a real user binary, not a run of identical bytes that
// gzip would fold away in the blob database.
func Pad(src []byte, size int) []byte {
	if len(src) >= size {
		return src
	}
	out := make([]byte, 0, size+80)
	out = append(out, src...)
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	state := uint64(0x9E3779B97F4A7C15)
	line := make([]byte, 0, 66)
	for len(out) < size {
		line = append(line[:0], '#')
		for i := 0; i < 64; i++ {
			// xorshift64*: cheap, deterministic, passes as noise to gzip.
			state ^= state >> 12
			state ^= state << 25
			state ^= state >> 27
			line = append(line, alphabet[(state*0x2545F4914F6CDD1D)>>58])
		}
		line = append(line, '\n')
		out = append(out, line...)
	}
	return out
}
