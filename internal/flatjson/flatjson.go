// Package flatjson reads the flat JSON objects this repository's own
// encoders write on a hot path — an event frame's data, a submit reply, an
// invoke reply: one object of string and integer members, at most eight,
// each key once, no white space — without reflection. It decides nothing
// about what is valid: a document outside that shape (and a string that
// is not valid UTF-8, or holds a surrogate escape, which encoding/json
// rewrites) makes Done report false, and the caller hands the same bytes
// to encoding/json. What it does accept it decodes to what encoding/json
// decodes, which FuzzEventData in internal/gram checks.
package flatjson

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Object walks one document. Any failure latches: every later call
// returns a zero value and Done returns false.
type Object struct {
	b      []byte
	i      int
	bad    bool
	closed bool
	key    []byte
	seen   [8][]byte
	n      int
}

// Open starts a walk over doc.
func Open(doc []byte) Object {
	o := Object{b: doc}
	o.expect('{')
	return o
}

func (o *Object) expect(c byte) {
	if o.i < len(o.b) && o.b[o.i] == c {
		o.i++
	} else {
		o.bad = true
	}
}

// Next moves to the next member and reports whether there is one.
func (o *Object) Next() bool {
	if o.bad || o.closed {
		return false
	}
	if o.i < len(o.b) && o.b[o.i] == '}' {
		o.i++
		o.closed = true
		return false
	}
	if o.n > 0 {
		o.expect(',')
	}
	o.key = o.Token()
	o.expect(':')
	for _, k := range o.seen[:o.n] {
		if bytes.Equal(k, o.key) {
			o.bad = true
		}
	}
	if o.n == len(o.seen) {
		o.bad = true
	}
	if o.bad {
		return false
	}
	o.seen[o.n] = o.key
	o.n++
	return true
}

// Key is the current member's name, a slice of the document.
func (o *Object) Key() []byte { return o.key }

// Fail abandons the walk: the caller met a member it does not know.
func (o *Object) Fail() { o.bad = true }

// Done reports whether the whole document was one object of the shape
// this package reads; a single trailing newline, json.Encoder's, is allowed.
func (o *Object) Done() bool {
	if o.bad || !o.closed {
		return false
	}
	rest := o.b[o.i:]
	return len(rest) == 0 || string(rest) == "\n"
}

// raw returns what stands between the quotes of the string value at the
// cursor and whether it holds an escape.
func (o *Object) raw() (s []byte, escaped bool) {
	o.expect('"')
	start, ascii := o.i, true
	for !o.bad && o.i < len(o.b) {
		switch c := o.b[o.i]; {
		case c == '"':
			s = o.b[start:o.i]
			o.i++
			if !ascii && !utf8.Valid(s) {
				o.bad = true
			}
			return s, escaped
		case c == '\\':
			escaped = true
			o.i++ // whatever follows is unescape's to judge, a quote included
		case c < 0x20:
			o.bad = true
		case c >= utf8.RuneSelf:
			ascii = false
		}
		o.i++
	}
	o.bad = true
	return nil, false
}

// Token returns a string value that holds no escape as a slice of the
// document, so a caller can compare it to names it knows before it
// allocates; a value with an escape fails the walk.
func (o *Object) Token() []byte {
	s, escaped := o.raw()
	if escaped {
		o.bad = true
	}
	if o.bad {
		return nil
	}
	return s
}

// String returns the string value at the cursor, unescaped.
func (o *Object) String() string {
	s, escaped := o.raw()
	if o.bad || !escaped {
		return string(s)
	}
	var sb strings.Builder
	sb.Grow(len(s))
	if o.bad = !unescape(s, &sb); o.bad {
		return ""
	}
	return sb.String()
}

// Skip reads the string value at the cursor, as String does, and drops it.
func (o *Object) Skip() {
	if s, escaped := o.raw(); !o.bad && escaped {
		o.bad = !unescape(s, nil)
	}
}

// unescape writes s without its escapes to sb, when there is one, and
// reports whether every escape in s is one this package reads.
func unescape(s []byte, sb *strings.Builder) bool {
	var r rune
	for i := 0; i < len(s); i++ {
		if r = rune(s[i]); r == '\\' {
			i++ // raw left no backslash without a byte after it
			switch r = rune(s[i]); r {
			case '"', '\\', '/':
			case 'b':
				r = '\b'
			case 'f':
				r = '\f'
			case 'n':
				r = '\n'
			case 'r':
				r = '\r'
			case 't':
				r = '\t'
			case 'u':
				if len(s)-i < 5 {
					return false
				}
				// ParseUint takes no sign and, with a base given, no prefix or
				// underscore: four hex digits or an error. RuneLen is -1 for a
				// surrogate half.
				v, err := strconv.ParseUint(string(s[i+1:i+5]), 16, 16)
				if r = rune(v); err != nil || utf8.RuneLen(r) < 0 {
					return false
				}
				i += 4
			default:
				return false
			}
			if sb != nil {
				sb.WriteRune(r)
			}
		} else if sb != nil {
			sb.WriteByte(s[i])
		}
	}
	return true
}

// Uint returns the decimal integer at the cursor: up to nineteen digits,
// which cannot overflow, and no leading zero.
func (o *Object) Uint() uint64 {
	start := o.i
	var v uint64
	for o.i < len(o.b) && '0' <= o.b[o.i] && o.b[o.i] <= '9' {
		v = v*10 + uint64(o.b[o.i]-'0')
		o.i++
	}
	if n := o.i - start; n == 0 || n > 19 || (n > 1 && o.b[start] == '0') {
		o.bad = true
	}
	if o.bad {
		return 0
	}
	return v
}

// Int is Uint with an optional minus sign, within int64.
func (o *Object) Int() int64 {
	neg := o.i < len(o.b) && o.b[o.i] == '-'
	if neg {
		o.i++
	}
	v := o.Uint()
	if v > 1<<63-1 { // -1<<63 goes the long way round too
		o.bad = true
		return 0
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}
