package hop

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// The transport frames its own requests and replies: a head's bytes are
// (*http.Request).Write's (FuzzRequestHead), a reply it accepts reads as
// http.ReadResponse reads it (FuzzReadReply), and what it refuses beyond
// net/http is listed in DESIGN.md §6.3.

var chunkedTE = []string{"chunked"} // every chunked reply's TransferEncoding: do not modify

// target is what a request's head is written from, checked once for all
// of its attempts; "?" and URL.RawQuery follow uri if query.
type target struct {
	host, uri string
	query     bool
	length    int64 // of the body
}

func newTarget(req *http.Request) (target, error) {
	u := req.URL
	t := target{cmp.Or(req.Host, u.Host), u.EscapedPath(), u.ForceQuery || u.RawQuery != "", req.ContentLength}
	switch {
	case req.Method == "CONNECT" && u.Path == "":
		t.uri, t.query = cmp.Or(u.Opaque, t.host), false
	case u.Opaque != "" || t.uri == "":
		t.uri, t.query = u.RequestURI(), false // the rare shapes, whole
	}
	switch {
	case len(req.TransferEncoding) > 0 || req.Trailer != nil:
		return t, errors.New("hop: a request's TransferEncoding and Trailer are not sent")
	case req.Body == nil && t.length != 0:
		return t, fmt.Errorf("http: Request.ContentLength=%d with nil Body", t.length)
	case req.Body == nil || req.Body == http.NoBody:
		t.length = 0
	case t.length <= 0:
		return t, errors.New("hop: Request.ContentLength unknown: only a body of known length is sent")
	}
	if strings.IndexFunc(t.uri, ctl) >= 0 || t.query && strings.IndexFunc(u.RawQuery, ctl) >= 0 || !only(t.host, "-._~:[]") {
		return t, fmt.Errorf("hop: control character in Request.URL, or invalid Host %q", t.host)
	}
	return t, nil
}

// writeHead writes req's head to bw as (*http.Request).Write does, with no
// allocation for up to 16 fields. bw keeps the first write error.
func writeHead(bw *bufio.Writer, req *http.Request, t *target) {
	method := cmp.Or(req.Method, http.MethodGet)
	put(bw, method, " ", t.uri)
	if t.query {
		put(bw, "?", req.URL.RawQuery)
	}
	put(bw, " HTTP/1.1\r\nHost: ", t.host, "\r\n")
	if ua, ok := req.Header["User-Agent"]; !ok {
		put(bw, "User-Agent: Go-http-client/1.1\r\n")
	} else if len(ua) > 0 && ua[0] != "" {
		writeField(bw, "User-Agent", ua[0])
	}
	if req.Close && !hasToken(req.Header["Connection"], "close") {
		put(bw, "Connection: close\r\n")
	}
	if t.length > 0 || method == http.MethodPost || method == http.MethodPut || method == http.MethodPatch {
		put(bw, "Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), t.length, 10))
		put(bw, "\r\n")
	}
	var stack [16]string
	keys := stack[:0]
	for k := range req.Header {
		if k != "Host" && k != "User-Agent" && k != "Content-Length" && k != "Transfer-Encoding" && k != "Trailer" && token(k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range req.Header[k] {
			writeField(bw, k, v)
		}
	}
	put(bw, "\r\n")
}

func put(bw *bufio.Writer, s ...string) {
	for _, s := range s {
		bw.WriteString(s)
	}
}

// writeField writes a field as net/http does: CR and LF in the value
// become spaces, and its ends are trimmed.
func writeField(bw *bufio.Writer, key, v string) {
	put(bw, key, ": ")
	v = textproto.TrimString(v)
	for i := strings.IndexAny(v, "\r\n"); i >= 0; i = strings.IndexAny(v, "\r\n") {
		put(bw, v[:i], " ")
		v = v[i+1:]
	}
	put(bw, v, "\r\n")
}

// readReply reads the final reply past at most five interim 1xx ones, as
// http.Transport does.
func readReply(br *bufio.Reader, buf *[]byte, req *http.Request) (*http.Response, error) {
	for range 6 {
		if resp, err := readHead(br, buf, req); err != nil || resp.StatusCode >= 200 {
			return resp, err
		}
	}
	return nil, errors.New("hop: more than five interim replies")
}

// readHead reads a reply's head from br into buf, cuts its status and
// fields out of one string, and frames its body as RFC 9112 §6.3 does, in
// a *replyBody with no connection yet (or http.NoBody).
func readHead(br *bufio.Reader, buf *[]byte, req *http.Request) (*http.Response, error) {
	b, start := (*buf)[:0], 0
	for {
		line, err := br.ReadSlice('\n')
		b = append(b, line...)
		*buf = b
		switch {
		case len(b) > http.DefaultMaxHeaderBytes:
			return nil, errors.New("hop: reply head larger than http.DefaultMaxHeaderBytes")
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF:
			return nil, io.ErrUnexpectedEOF
		case err != nil:
			return nil, err
		}
		if n := len(b) - start; n == 1 || n == 2 && b[start] == '\r' {
			break // the blank line; a bare LF fails below
		}
		start = len(b)
	}
	line, rest, _ := strings.Cut(string(b), "\r\n")
	proto, status, _ := strings.Cut(line, " ")
	status = strings.TrimLeft(status, " ")
	code, err := strconv.Atoi(status[:min(3, len(status))])
	if err != nil || proto != "HTTP/1.1" && proto != "HTTP/1.0" || len(status) < 3 || len(status) > 3 && status[3] != ' ' ||
		status[0] < '1' || strings.Contains(line, "\n") {
		return nil, fmt.Errorf("hop: malformed status line %q", line)
	}
	// One map, and one array that every field's first value shares: the
	// reply's own for the first few.
	rp := new(incoming)
	n := strings.Count(rest, "\r\n") - 1 // the blank line ends rest
	h, vals := make(http.Header, n), rp.vals[:0]
	if n > len(rp.vals) {
		vals = make([]string, 0, n)
	}
	te, codings := "", 0
	for {
		if line, rest, _ = strings.Cut(rest, "\r\n"); line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if v = strings.Trim(v, " \t"); !ok || !token(k) || strings.IndexFunc(v, func(r rune) bool { return r != '\t' && ctl(r) }) >= 0 {
			return nil, fmt.Errorf("hop: malformed reply header line %q", line)
		}
		key := textproto.CanonicalMIMEHeaderKey(k)
		switch vs := h[key]; {
		case key == "Transfer-Encoding": // framing only: net/http deletes it
			te, codings = v, codings+1
		case key == "Content-Length" && vs != nil && vs[0] != v:
			return nil, fmt.Errorf("hop: reply with Content-Lengths %q and %q", vs[0], v)
		case key == "Content-Length" && vs != nil:
		case vs != nil:
			h[key] = append(vs, v)
		default:
			vals = append(vals, v)
			h[key] = vals[len(vals)-1 : len(vals) : len(vals)]
		}
	}
	resp := &rp.resp
	*resp = http.Response{Status: status, StatusCode: code, Proto: proto, ProtoMajor: 1, ProtoMinor: int(proto[7] - '0'),
		Header: h, ContentLength: -1, Request: req}
	if conn := h["Connection"]; resp.ProtoMinor == 0 {
		resp.Close = hasToken(conn, "close") || !hasToken(conn, "keep-alive")
	} else if resp.Close = hasToken(conn, "close"); resp.Close {
		delete(h, "Connection")
	}
	if p := h["Pragma"]; len(p) > 0 && p[0] == "no-cache" && h["Cache-Control"] == nil {
		h["Cache-Control"] = []string{"no-cache"}
	}
	if codings > 0 && (codings > 1 || resp.ProtoMinor == 0 || !tokenIs(te, "chunked") || h["Trailer"] != nil) {
		return nil, fmt.Errorf("hop: transfer coding %q, or a trailer, on an HTTP/1.%d reply", te, resp.ProtoMinor)
	}
	length := int64(-1)
	if cl := h["Content-Length"]; cl != nil {
		n, err := strconv.ParseUint(cl[0], 10, 63)
		if err != nil {
			return nil, fmt.Errorf("hop: bad Content-Length %q", cl[0])
		}
		length = int64(n)
	}
	if codings > 0 {
		resp.TransferEncoding = chunkedTE
	}
	switch c := resp.StatusCode; {
	case req.Method == http.MethodHead:
		resp.Body, resp.ContentLength = http.NoBody, length
	case c < 200 || c == 204 || c == 304:
		resp.Body, resp.ContentLength = http.NoBody, 0
	case codings > 0:
		delete(h, "Content-Length")
		rp.body = replyBody{br: br, r: httputil.NewChunkedReader(br), left: -1, chunked: true}
		resp.Body = &rp.body
	case length == 0:
		resp.Body, resp.ContentLength = http.NoBody, 0
	default: // without a length, the body ends with the connection
		rp.body = replyBody{br: br, r: br, left: length}
		resp.Body, resp.ContentLength, resp.Close = &rp.body, length, resp.Close || length < 0
	}
	return resp, nil
}

// incoming is one reply as readHead allocates it: the response, its body and
// the values of its first few header fields.
type incoming struct {
	resp http.Response
	body replyBody
	vals [3]string
}

// replyBody reads a body off its connection — left bytes, the chunks, or
// to close — and returns the connection to the pool at EOF; an error, or a
// Close first, closes it. Close may come from another goroutine while Read
// blocks (an event stream torn down): the close unblocks the read.
type replyBody struct {
	br           *bufio.Reader
	r            io.Reader // br, or the chunked reader over it
	left         int64     // of a Content-Length body; -1 for the others
	chunked, eof bool      // eof: Read saw the end and reads nothing more
	keep         bool      // the reply leaves the connection reusable
	t            *Transport
	c            atomic.Pointer[conn] // nil once the body is done with it
}

func (b *replyBody) Read(p []byte) (n int, err error) {
	if b.eof {
		return 0, io.EOF
	}
	if b.left >= 0 {
		p = p[:min(int64(len(p)), b.left)]
	}
	switch n, err = b.r.Read(p); {
	case b.left >= 0:
		if b.left -= int64(n); b.left == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	case b.chunked && err == io.EOF:
		if line, e := b.br.ReadSlice('\n'); e != nil || string(line) != "\r\n" {
			err = errors.New("hop: chunked reply not ended by an empty trailer")
		}
	}
	if err != nil {
		b.eof = err == io.EOF
		b.done(b.eof && b.keep)
	}
	return n, err
}

func (b *replyBody) Close() error {
	b.done(false)
	return nil
}

func (b *replyBody) done(keep bool) {
	if c := b.c.Swap(nil); c != nil {
		b.t.release(c, keep)
	}
}

// hasToken reports whether a comma-separated list in vs names token, as
// net/http reads Connection.
func hasToken(vs []string, token string) bool {
	for _, v := range vs {
		for v != "" {
			var t string
			if t, v, _ = strings.Cut(v, ","); tokenIs(strings.Trim(t, " \t"), token) {
				return true
			}
		}
	}
	return false
}

// tokenIs compares t with an ASCII token, ASCII case folded: a rune of t
// that folds to an ASCII letter is longer than the letter.
func tokenIs(t, token string) bool { return len(t) == len(token) && strings.EqualFold(t, token) }

// token reports whether s is an RFC 9110 token, the form of a field name.
func token(s string) bool { return s != "" && only(s, "!#$%&'*+-.^_`|~") }

// only reports whether s is made of ASCII letters, digits and the bytes of extra.
func only(s, extra string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z') && strings.IndexByte(extra, c) < 0 {
			return false
		}
	}
	return true
}

func ctl(r rune) bool { return r < ' ' || r == 0x7f }
