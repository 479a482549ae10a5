package soap

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
)

// maxDepth caps element nesting. An RPC envelope is four levels deep
// (Envelope, Body, operation, parameter) and a structured header entry
// or fault detail adds a few more; anything deeper is not a request
// this container serves, and a fixed cap keeps the open-element stack
// off the heap.
const maxDepth = 32

// nsDecl is one xmlns declaration in scope. Declarations live on a stack
// searched from the top, so an inner declaration shadows an outer one and
// closing an element drops exactly the declarations it made.
type nsDecl struct{ prefix, uri string }

// Decode parses a SOAP envelope into a Message, or returns the carried
// *Fault as an error if the body is a fault. The document must be whole:
// an envelope that is cut short or stops being XML part-way is ErrNotSOAP,
// never the message read so far.
//
// It copies data into one string and walks that string once; every name
// and value in the returned Message is a substring of that copy, unless
// an entity reference, a carriage return or markup inside the value (a
// comment, a CDATA section's edge, a child element) forced it to be
// rebuilt. DESIGN.md §6 "the SOAP door" gives the accepted grammar.
func Decode(data []byte) (*Message, error) {
	s := string(data)
	var (
		open     [maxDepth]string // qualified names of the open elements, as written
		marks    [maxDepth]int    // len(decls) before each open element's own declarations
		declArr  [8]nsDecl
		decls    = declArr[:0]
		paramArr [8]Param // backs params until a ninth parameter arrives
		params   = paramArr[:0]
		asm      assembler
		depth    int
		i        int
	)
	if strings.HasPrefix(s, "<?xml") {
		end, err := skipXMLDecl(s)
		if err != nil {
			return nil, err
		}
		i = end
	}
	for i < len(s) {
		if s[i] != '<' {
			end, plain, err := scanChars(s, i, 0)
			if err != nil {
				return nil, err
			}
			if err := asm.text(depth, s[i:end], plain, false); err != nil {
				return nil, err
			}
			i = end
			continue
		}
		switch {
		case strings.HasPrefix(s[i:], "</"):
			name, _, j, err := scanName(s, i+2)
			if err != nil {
				return nil, err
			}
			j = skipSpace(s, j)
			if j >= len(s) || s[j] != '>' {
				return nil, syntaxError(j, "end tag is not closed")
			}
			if depth == 0 || open[depth-1] != name {
				return nil, syntaxError(i, "end tag matches no open element")
			}
			params = asm.end(depth, params)
			depth--
			decls = decls[:marks[depth]]
			i = j + 1

		case strings.HasPrefix(s[i:], "<!--"):
			// "--" may appear in a comment only as part of its terminator.
			body := s[i+4:]
			k := strings.Index(body, "--")
			if k < 0 || k+2 >= len(body) || body[k+2] != '>' {
				return nil, syntaxError(i, "malformed comment")
			}
			i += 4 + k + 3

		case strings.HasPrefix(s[i:], "<![CDATA["):
			body := s[i+9:]
			k := strings.Index(body, "]]>")
			if k < 0 {
				return nil, syntaxError(i, "unterminated CDATA section")
			}
			if err := checkChars(body[:k], i+9); err != nil {
				return nil, err
			}
			if err := asm.text(depth, body[:k], strings.IndexByte(body[:k], '\r') < 0, true); err != nil {
				return nil, err
			}
			i += 9 + k + 3

		case strings.HasPrefix(s[i:], "<?"), strings.HasPrefix(s[i:], "<!"):
			// SOAP 1.1 §3: a message must not contain a document type
			// declaration or processing instructions.
			return nil, syntaxError(i, "processing instructions and DTDs are not allowed in a SOAP message")

		default:
			if depth == maxDepth {
				return nil, syntaxError(i, "elements nested too deeply")
			}
			mark := len(decls)
			var tag startTag
			var err error
			if tag, decls, err = scanStartTag(s, i, decls); err != nil {
				return nil, err
			}
			space, err := resolve(decls, tag.name[:tag.colon], i)
			if err != nil {
				return nil, err
			}
			local := tag.name
			if tag.colon > 0 {
				local = tag.name[tag.colon+1:]
			}
			open[depth], marks[depth] = tag.name, mark
			depth++
			if err := asm.start(depth, space, local); err != nil {
				return nil, err
			}
			if tag.selfClosing {
				params = asm.end(depth, params)
				depth--
				decls = decls[:mark]
			}
			i = tag.end
		}
	}
	if depth > 0 {
		return nil, syntaxError(len(s), "unexpected end of document")
	}
	return asm.result(params)
}

func syntaxError(pos int, what string) error {
	return fmt.Errorf("%w: %s (byte %d)", ErrNotSOAP, what, pos)
}

// assembler turns the element and text events of one envelope into a
// Message or a Fault. Its rules are positional, exactly as the
// encoding/xml-based decoder it replaced applied them (decodeReference in
// the tests): a Header or Body is an envelope-namespace child of the
// Envelope, a header entry is any child of a Header, the operation is the
// first child of a Body not named Fault, and once an operation or a fault
// has been seen every element at depth four is read as one of its fields.
type assembler struct {
	inHeader, inBody bool
	haveOp           bool
	haveFault        bool
	closed           bool // the envelope's end tag has been read

	namespace, operation string
	fault                Fault
	headers              map[string]string

	// The value being collected, shared by header entries, parameters
	// and fault fields: seg while one substring of the document holds
	// all of it, buf once a second piece or an unescaped piece has
	// arrived. entry names the header entry or parameter it belongs to,
	// faultField the fault field.
	entry, faultField string
	seg               string
	buf               []byte
	built             bool
}

func (a *assembler) resetValue() {
	a.seg, a.buf, a.built = "", a.buf[:0], false
}

func (a *assembler) value() string {
	if a.built {
		return string(a.buf)
	}
	return a.seg
}

// start handles the start tag of the element that is now depth levels deep.
func (a *assembler) start(depth int, space, local string) error {
	switch {
	case depth == 1:
		if a.closed || space != EnvelopeNS || local != "Envelope" {
			return ErrNotSOAP
		}
	case depth == 2 && space == EnvelopeNS && local == "Header":
		a.inHeader = true
	case depth == 2 && space == EnvelopeNS && local == "Body":
		a.inBody = true
	case a.inHeader && depth == 3:
		a.entry = local
		a.resetValue()
	case a.inBody && depth == 3:
		if local == "Fault" {
			a.fault, a.haveFault = Fault{}, true
		} else if !a.haveOp {
			a.operation, a.namespace, a.haveOp = local, space, true
		}
	case a.haveFault && depth == 4:
		a.faultField = local
		a.resetValue()
	case a.haveOp && depth == 4:
		a.entry = local
		a.resetValue()
	}
	return nil
}

// text handles one run of character data at the given depth. plain says
// seg can be used as it stands; otherwise it holds entity references
// (unless cdata) or carriage returns that must be rewritten.
func (a *assembler) text(depth int, seg string, plain, cdata bool) error {
	if depth == 0 && strings.Trim(seg, " \t\r\n") != "" {
		return fmt.Errorf("%w: text outside the envelope", ErrNotSOAP)
	}
	if !(a.inHeader && depth == 3) && !((a.haveFault || a.haveOp) && depth == 4) {
		return nil
	}
	if plain && !a.built && a.seg == "" {
		a.seg = seg
		return nil
	}
	if !a.built {
		a.buf, a.built = append(a.buf, a.seg...), true
	}
	if plain {
		a.buf = append(a.buf, seg...)
	} else {
		// Unescaping only shrinks, so one growth covers the piece.
		a.buf = appendUnescaped(slices.Grow(a.buf, len(seg)), seg, cdata)
	}
	return nil
}

// end handles the end tag of the element depth levels deep. The
// parameters read so far travel through it rather than live in the
// assembler, so that the array backing them can stay on Decode's stack.
func (a *assembler) end(depth int, params []Param) []Param {
	switch {
	case a.inHeader && depth == 3:
		if a.headers == nil {
			a.headers = make(map[string]string)
		}
		a.headers[a.entry] = a.value()
	case a.haveFault && depth == 4:
		switch a.faultField {
		case "faultcode":
			a.fault.Code = a.value()
		case "faultstring":
			a.fault.String = a.value()
		case "faultactor":
			a.fault.Actor = a.value()
		case "detail":
			a.fault.Detail = a.value()
		}
	case a.haveOp && depth == 4:
		params = append(params, Param{Name: a.entry, Value: a.value()})
	case depth == 2:
		// Elements nest, so the one closing here is the one that set
		// the flag, if either is set.
		a.inHeader, a.inBody = false, false
	}
	a.closed = depth == 1
	return params
}

func (a *assembler) result(params []Param) (*Message, error) {
	if !a.closed {
		return nil, fmt.Errorf("%w: no envelope", ErrNotSOAP)
	}
	if a.haveFault {
		f := a.fault
		return nil, &f
	}
	if !a.haveOp {
		return nil, ErrNoOperation
	}
	msg := &Message{Namespace: a.namespace, Operation: a.operation, Headers: a.headers}
	if len(params) > 0 {
		msg.Params = append(make([]Param, 0, len(params)), params...)
	}
	return msg, nil
}

// startTag is a scanned start tag: its qualified name as written, the
// index of the colon in it (0 without a prefix), whether it is an
// empty-element tag, and the index after its closing '>'.
type startTag struct {
	name        string
	colon, end  int
	selfClosing bool
}

// scanStartTag reads the start tag at s[i] and pushes the namespaces it
// declares onto decls. Every attribute value is checked; only the
// declarations are kept.
func scanStartTag(s string, i int, decls []nsDecl) (startTag, []nsDecl, error) {
	var tag startTag
	var err error
	j := 0
	if tag.name, tag.colon, j, err = scanName(s, i+1); err != nil {
		return tag, decls, err
	}
	for {
		j = skipSpace(s, j)
		switch {
		case j >= len(s):
			return tag, decls, syntaxError(j, "unterminated start tag")
		case s[j] == '>':
			tag.end = j + 1
			return tag, decls, nil
		case s[j] == '/':
			if j+1 >= len(s) || s[j+1] != '>' {
				return tag, decls, syntaxError(j, "expected />")
			}
			tag.selfClosing, tag.end = true, j+2
			return tag, decls, nil
		}
		attr, colon, k, err := scanName(s, j)
		if err != nil {
			return tag, decls, err
		}
		k = skipSpace(s, k)
		if k >= len(s) || s[k] != '=' {
			return tag, decls, syntaxError(k, "attribute without a value")
		}
		k = skipSpace(s, k+1)
		if k >= len(s) || (s[k] != '"' && s[k] != '\'') {
			return tag, decls, syntaxError(k, "attribute value is not quoted")
		}
		end, plain, err := scanChars(s, k+1, s[k])
		if err != nil {
			return tag, decls, err
		}
		if prefix, declares := declaredPrefix(attr, colon); declares {
			uri := s[k+1 : end]
			if !plain {
				uri = string(appendUnescaped(nil, uri, false))
			}
			decls = append(decls, nsDecl{prefix, uri})
		}
		j = end + 1
	}
}

// skipXMLDecl checks the XML declaration s starts with and returns the
// index after it: version="1.0", then optionally a UTF-8 encoding, then
// optionally standalone, each written name="value" or name='value'.
func skipXMLDecl(s string) (int, error) {
	i := len("<?xml")
	// attr consumes the pseudo-attribute name at i, if that is what
	// follows, and returns its value.
	attr := func(name string) (string, bool) {
		j := skipSpace(s, i)
		if j == i || !strings.HasPrefix(s[j:], name+"=") {
			return "", false
		}
		j += len(name) + 1
		if j >= len(s) || (s[j] != '"' && s[j] != '\'') {
			return "", false
		}
		k := strings.IndexByte(s[j+1:], s[j])
		if k < 0 {
			return "", false
		}
		i = j + 1 + k + 1
		return s[j+1 : j+1+k], true
	}
	if v, ok := attr("version"); !ok || v != "1.0" {
		return 0, syntaxError(i, "XML declaration without version 1.0")
	}
	if v, ok := attr("encoding"); ok && !strings.EqualFold(v, "utf-8") {
		return 0, syntaxError(i, "only UTF-8 documents are accepted")
	}
	if v, ok := attr("standalone"); ok && v != "yes" && v != "no" {
		return 0, syntaxError(i, "malformed XML declaration")
	}
	i = skipSpace(s, i)
	if !strings.HasPrefix(s[i:], "?>") {
		return 0, syntaxError(i, "malformed XML declaration")
	}
	return i + 2, nil
}

func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n') {
		i++
	}
	return i
}

// Byte classes of the scanner.
const (
	nameStart = 1 << iota // may begin a name or the local part after a colon
	nameChar              // may continue a name
	special               // needs a decision inside character data
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', c == '_':
			t[c] = nameStart | nameChar
		case '0' <= c && c <= '9', c == '-', c == '.':
			t[c] = nameChar
		case c < 0x20 && c != '\t' && c != '\n', c >= 0x80,
			c == '<', c == '>', c == '&', c == '"', c == '\'':
			t[c] = special
		}
	}
	return
}()

// scanName reads the qualified name starting at s[i]: ASCII letters,
// digits, '_', '-' and '.', each part starting with a letter or '_', and
// at most one colon with a part on both sides. colon is the colon's index
// in name, or 0 when there is no prefix; end is the index after the name.
func scanName(s string, i int) (name string, colon, end int, err error) {
	start := i
	for part := 0; ; part++ {
		if i >= len(s) || byteClass[s[i]]&nameStart == 0 {
			return "", 0, 0, syntaxError(i, "expected a name")
		}
		for i < len(s) && byteClass[s[i]]&nameChar != 0 {
			i++
		}
		if part == 1 || i >= len(s) || s[i] != ':' {
			break
		}
		colon = i - start
		i++
	}
	if i < len(s) && (s[i] == ':' || s[i] >= utf8.RuneSelf) {
		return "", 0, 0, syntaxError(i, "names are ASCII with at most one colon")
	}
	return s[start:i], colon, i, nil
}

// declaredPrefix reports whether the attribute name is a namespace
// declaration, and of which prefix ("" for the default namespace).
func declaredPrefix(attr string, colon int) (prefix string, ok bool) {
	if colon == 0 {
		return "", attr == "xmlns"
	}
	if attr[:colon] == "xmlns" {
		return attr[colon+1:], true
	}
	return "", false
}

// resolve maps an element's prefix to its namespace. An unprefixed
// element outside any default namespace is in no namespace. The reserved
// prefixes xml and xmlns resolve to nothing a declaration can change, and
// no envelope element lives there, so they are refused like an undeclared
// prefix.
func resolve(decls []nsDecl, prefix string, pos int) (string, error) {
	if prefix != "xml" && prefix != "xmlns" {
		for k := len(decls) - 1; k >= 0; k-- {
			if decls[k].prefix == prefix {
				return decls[k].uri, nil
			}
		}
		if prefix == "" {
			return "", nil
		}
	}
	return "", syntaxError(pos, "undeclared namespace prefix "+prefix)
}

// scanChars validates the character data starting at s[i] and returns
// where it ends: at the next '<' or the end of s when quote is 0 (text),
// at the closing quote otherwise (an attribute value). plain reports
// that it holds no entity reference and no carriage return, so the bytes
// are the value.
func scanChars(s string, i int, quote byte) (end int, plain bool, err error) {
	start := i
	plain = true
	for i < len(s) {
		c := s[i]
		if byteClass[c]&special == 0 {
			i++
			continue
		}
		switch {
		case c == '<':
			if quote != 0 {
				return 0, false, syntaxError(i, "< inside an attribute value")
			}
			return i, plain, nil
		case c == '"' || c == '\'':
			if c == quote {
				return i, plain, nil
			}
			i++
		case c == '>':
			if quote == 0 && i-start >= 2 && s[i-1] == ']' && s[i-2] == ']' {
				return 0, false, syntaxError(i, "]]> outside a CDATA section")
			}
			i++
		case c == '&':
			_, n := entity(s[i:])
			if n == 0 {
				return 0, false, syntaxError(i, "invalid entity or character reference")
			}
			plain = false
			i += n
		case c == '\r':
			plain = false
			i++
		case c < 0x20:
			return 0, false, syntaxError(i, "illegal character")
		default:
			size := legalRune(s[i:])
			if size == 0 {
				return 0, false, syntaxError(i, "invalid UTF-8 or illegal character")
			}
			i += size
		}
	}
	if quote != 0 {
		return 0, false, syntaxError(i, "unterminated attribute value")
	}
	return i, plain, nil
}

// checkChars validates a span in which no byte is markup — the inside of
// a CDATA section — against the XML Char production.
func checkChars(seg string, pos int) error {
	for i := 0; i < len(seg); {
		c := seg[i]
		switch {
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			return syntaxError(pos+i, "illegal character")
		case c < utf8.RuneSelf:
			i++
		default:
			size := legalRune(seg[i:])
			if size == 0 {
				return syntaxError(pos+i, "invalid UTF-8 or illegal character")
			}
			i += size
		}
	}
	return nil
}

// legalRune returns the length of the multi-byte character s starts
// with, or 0 when the bytes are not UTF-8 or encode U+FFFE or U+FFFF,
// the two characters past U+007F that XML excludes and UTF-8 can carry.
func legalRune(s string) int {
	r, size := utf8.DecodeRuneInString(s)
	if (r == utf8.RuneError && size == 1) || r == 0xFFFE || r == 0xFFFF {
		return 0
	}
	return size
}

// entity decodes the reference s starts with ('&' first): one of the five
// predefined entities or a decimal or hexadecimal character reference to
// a legal XML character. n is its length in s, 0 if it is not valid.
func entity(s string) (r rune, n int) {
	switch {
	case strings.HasPrefix(s, "&lt;"):
		return '<', 4
	case strings.HasPrefix(s, "&gt;"):
		return '>', 4
	case strings.HasPrefix(s, "&amp;"):
		return '&', 5
	case strings.HasPrefix(s, "&apos;"):
		return '\'', 6
	case strings.HasPrefix(s, "&quot;"):
		return '"', 6
	case !strings.HasPrefix(s, "&#"):
		return 0, 0
	}
	i, base := 2, rune(10)
	if i < len(s) && s[i] == 'x' {
		i, base = 3, 16
	}
	digits := i
	for ; i < len(s) && s[i] != ';'; i++ {
		var d rune
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, 0
		}
		if r = r*base + d; r > utf8.MaxRune {
			return 0, 0
		}
	}
	if i == digits || i >= len(s) {
		return 0, 0
	}
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError // what string(rune) makes of a surrogate
	}
	if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
		return 0, 0
	}
	return r, i + 1
}

// appendUnescaped appends seg — already validated by scanChars or
// checkChars — to dst with entity references replaced (unless cdata) and
// each "\r\n" or lone "\r" turned into "\n" (XML 1.0 §2.11).
func appendUnescaped(dst []byte, seg string, cdata bool) []byte {
	for i := 0; i < len(seg); {
		switch c := seg[i]; {
		case c == '&' && !cdata:
			r, n := entity(seg[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		case c == '\r':
			dst = append(dst, '\n')
			i++
			if i < len(seg) && seg[i] == '\n' {
				i++
			}
		default:
			dst = append(dst, c)
			i++
		}
	}
	return dst
}
