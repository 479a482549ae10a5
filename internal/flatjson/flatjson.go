// Package flatjson reads the flat JSON this repository's own encoders
// write on a hot path — an event frame's data, a submit, status or sites
// reply, a credential, a MyProxy response, an invoke reply, an invoke
// request — without reflection. A flat object has string, integer, float
// and boolean members, at most eight, each key once, and no white space.
// A member may also be a nested object of string members (an invoke's
// args, read by Map), an array of flat objects (a site list, a
// certificate chain, read by Array; a whole document may be one too), or
// a nested value the caller decodes itself (a MyProxy response's
// credential, returned by Raw). It decides nothing about what is valid: a
// document outside that shape (and a string that is not valid UTF-8, or
// holds a surrogate escape, which encoding/json rewrites) makes Done
// report false, and the caller hands the same bytes to encoding/json.
// What it does accept it decodes to what encoding/json decodes, which
// FuzzEventData, FuzzStatusReply, FuzzSitesReply (gram), FuzzCredential
// (xsec), FuzzGetResponse (myproxy) and FuzzInvokeBody (portal) check.
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
	s      string // the document's bytes again, when Share gave them
	i      int
	bad    bool
	closed bool
	plain  bool
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

// Share gives the walk s, a string of the document's bytes: String then
// returns a value without escapes as a substring of s, so a caller that
// reads many strings from one document pays for one copy of it.
func (o *Object) Share(s string) { o.s = s }

// Offset is the cursor's position in the document: before a member's
// value and after it, the two bound the value's bytes.
func (o *Object) Offset() int { return o.i }

// Key is the current member's name, a slice of the document.
func (o *Object) Key() []byte { return o.key }

// Fail abandons the walk: the caller met a member it does not know.
func (o *Object) Fail() { o.bad = true }

// Done reports whether the whole document was one object of the shape
// this package reads; a single trailing newline, json.Encoder's, is allowed.
func (o *Object) Done() bool { return !o.bad && o.closed && o.atEnd() }

// atEnd reports whether the cursor is at the document's end, or before
// its trailing newline.
func (o *Object) atEnd() bool {
	rest := o.b[o.i:]
	return len(rest) == 0 || string(rest) == "\n"
}

// raw returns what stands between the quotes of the string value at the
// cursor and whether it holds an escape, and notes for Plain whether
// json.Marshal would write the value as it stands.
func (o *Object) raw() (s []byte, escaped bool) {
	o.expect('"')
	start, ascii, plain := o.i, true, true
	for !o.bad && o.i < len(o.b) {
		switch c := o.b[o.i]; {
		case c == '"':
			s = o.b[start:o.i]
			o.i++
			if !ascii && !utf8.Valid(s) {
				o.bad = true
			}
			o.plain = plain && !escaped
			return s, escaped
		case c == '\\':
			escaped = true
			o.i++ // whatever follows is unescape's to judge, a quote included
		case c < 0x20:
			o.bad = true
		case c == '<' || c == '>' || c == '&':
			plain = false
		case c >= utf8.RuneSelf:
			ascii = false
			// U+2028 and U+2029, which json.Marshal escapes, are E2 80 A8/A9.
			if c == 0xE2 && o.i+2 < len(o.b) && o.b[o.i+1] == 0x80 && o.b[o.i+2]&^1 == 0xA8 {
				plain = false
			}
		}
		o.i++
	}
	o.bad = true
	return nil, false
}

// Plain reports whether the last string value read stands in the
// document as json.Marshal writes it: no escape, and none of what Marshal
// escapes (<, >, &, U+2028, U+2029).
func (o *Object) Plain() bool { return o.plain && !o.bad }

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
	if o.bad {
		return ""
	}
	if !escaped {
		if o.s != "" {
			end := o.i - 1 // the closing quote
			return o.s[end-len(s) : end]
		}
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

// Map reads the value at the cursor — an object of string members, no
// white space, or null — as encoding/json reads it into a
// map[string]string: null is a nil map, {} an empty one, keys are
// unescaped like values, and a key given twice keeps its last value.
// With keep false it reads the value alike, allocates nothing and returns
// nil: a caller that only checks the members.
func (o *Object) Map(keep bool) (m map[string]string) {
	if rest := o.b[o.i:]; len(rest) >= 4 && string(rest[:4]) == "null" {
		o.i += 4
		return nil
	}
	o.expect('{')
	if keep {
		m = map[string]string{}
	}
	for n := 0; !o.bad && o.i < len(o.b) && o.b[o.i] != '}'; n++ {
		if n > 0 {
			o.expect(',')
		}
		if !keep {
			o.Skip()
			o.expect(':')
			o.Skip()
			continue
		}
		k := o.String()
		o.expect(':')
		m[k] = o.String()
	}
	if o.expect('}'); o.bad {
		return nil
	}
	return m
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

// Int is Uint with an optional minus sign, within int64. A minus zero,
// which no encoder writes, goes the long way round, so every number Int
// accepts is written back as it stands.
func (o *Object) Int() int64 {
	neg := o.i < len(o.b) && o.b[o.i] == '-'
	if neg {
		o.i++
	}
	v := o.Uint()
	if v > 1<<63-1 || (neg && v == 0) { // -1<<63 goes the long way round too
		o.bad = true
		return 0
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// Float returns the number at the cursor as encoding/json reads it into a
// float64: JSON's number grammar, then strconv.ParseFloat, whose range
// error fails the walk as it fails encoding/json.
func (o *Object) Float() float64 {
	start := o.i
	if o.i < len(o.b) && o.b[o.i] == '-' {
		o.i++
	}
	switch {
	case o.i < len(o.b) && o.b[o.i] == '0':
		o.i++
	case o.digits() == 0:
		o.bad = true
	}
	if o.i < len(o.b) && o.b[o.i] == '.' {
		o.i++
		if o.digits() == 0 {
			o.bad = true
		}
	}
	if o.i < len(o.b) && (o.b[o.i] == 'e' || o.b[o.i] == 'E') {
		o.i++
		if o.i < len(o.b) && (o.b[o.i] == '+' || o.b[o.i] == '-') {
			o.i++
		}
		if o.digits() == 0 {
			o.bad = true
		}
	}
	if o.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(o.b[start:o.i]), 64)
	if err != nil {
		o.bad = true
		return 0
	}
	return v
}

// digits moves past the decimal digits at the cursor and counts them.
func (o *Object) digits() int {
	start := o.i
	for o.i < len(o.b) && '0' <= o.b[o.i] && o.b[o.i] <= '9' {
		o.i++
	}
	return o.i - start
}

// Bool returns the true or false at the cursor.
func (o *Object) Bool() bool {
	rest := o.b[o.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		o.i += 4
		return !o.bad
	case bytes.HasPrefix(rest, []byte("false")):
		o.i += 5
	default:
		o.bad = true
	}
	return false
}

// Raw returns the object or array at the cursor as it stands in the
// document, for the caller to decode. It finds only where the value ends,
// reading its strings as Skip does; what the value holds is the caller's
// to judge.
func (o *Object) Raw() []byte {
	start, depth := o.i, 0
	if o.i >= len(o.b) || (o.b[o.i] != '{' && o.b[o.i] != '[') {
		o.bad = true
	}
	for !o.bad && o.i < len(o.b) {
		switch o.b[o.i] {
		case '"':
			o.Skip()
			continue
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		if o.i++; depth == 0 {
			return o.b[start:o.i]
		}
	}
	o.bad = true
	return nil
}

// Array walks an array of flat objects: Next moves to each element in
// turn, and Elem walks that element's members. Any failure latches.
type Array struct {
	el    Object
	n     int
	ended bool
}

// OpenArray starts a walk over doc, an array of flat objects.
func OpenArray(doc []byte) Array {
	a := Array{el: Object{b: doc}}
	a.el.expect('[')
	return a
}

// Array starts a walk over the value at the cursor, an array of flat
// objects. Once its Next reports false, Resume carries the walk of o on
// after it; a walk not resumed fails at its next member.
func (o *Object) Array() Array {
	a := Array{el: Object{b: o.b, s: o.s, i: o.i, bad: o.bad}}
	a.el.expect('[')
	return a
}

// Resume moves o past a, an array it started, and takes on a's failure.
func (o *Object) Resume(a *Array) {
	o.i, o.bad = a.el.i, o.bad || a.el.bad || !a.ended
}

// Share is Object.Share for every element.
func (a *Array) Share(s string) { a.el.s = s }

// Next moves to the next element and reports whether there is one. The
// previous element must have been walked to its end.
func (a *Array) Next() bool {
	e := &a.el
	if a.n > 0 && !e.closed {
		e.bad = true
	}
	if !e.bad && !a.ended {
		if e.i < len(e.b) && e.b[e.i] == ']' {
			e.i++
			a.ended = true
		} else {
			if a.n > 0 {
				e.expect(',')
			}
			e.expect('{')
			e.closed, e.n, e.key = false, 0, nil
			a.n++
			if !e.bad {
				return true
			}
		}
	}
	return false
}

// Elem is the walk of the current element's members.
func (a *Array) Elem() *Object { return &a.el }

// Done reports whether the whole document was one array of the shape this
// package reads, as Object.Done does.
func (a *Array) Done() bool { return !a.el.bad && a.ended && a.el.atEnd() }
