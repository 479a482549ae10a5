// Package hop sends one request between this repository's own processes
// — appliance to gatekeeper or GridFTP server, gateway to appliance — and
// reads the whole reply. It goes to the transport directly: none of these
// servers redirects or sets cookies and no caller sets a client timeout,
// so everything http.Client.Do wraps around RoundTrip for those is skipped,
// and a 3xx comes back as the non-200 status it is. The package owns the
// transport these hops take unless a caller supplies one (Shared).
package hop

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/sizedio"
)

var shared = NewTransport(nil)

// Shared returns the transport a nil RoundTripper means to Do and
// RoundTrip, shared by every internal hop that is not given one of its own.
func Shared() *Transport { return shared }

// RoundTrip sends req over rt, or over Shared when rt is nil.
func RoundTrip(rt http.RoundTripper, req *http.Request) (*http.Response, error) {
	if rt == nil {
		return shared.RoundTrip(req)
	}
	return rt.RoundTrip(req)
}

// Base parses a server root such as "http://host:2119" once and again
// only when the text changes. The zero value is ready to use.
type Base struct {
	mu  sync.Mutex
	raw string
	u   *url.URL
}

// Parse returns raw as a URL. The result is shared: do not modify it.
func (b *Base) Parse(raw string) (*url.URL, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.u == nil || b.raw != raw {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, err
		}
		b.raw, b.u = raw, u
	}
	return b.u, nil
}

// Header builds a request header from key, value pairs. Keys must be in
// canonical form ("X-Grid-Token"); a pair with an empty value is left
// out. The values share one backing array.
func Header(kv ...string) http.Header {
	h := make(http.Header, len(kv)/2)
	vals := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] != "" {
			vals = append(vals, kv[i+1])
			h[kv[i]] = vals[len(vals)-1:]
		}
	}
	return h
}

// Reply is a whole response; Header is the response's own map.
type Reply struct {
	Status int
	Header http.Header
	Body   []byte
}

// payload is a request body over a byte slice.
type payload struct{ bytes.Reader }

func (*payload) Close() error { return nil }

func newPayload(b []byte) *payload {
	p := new(payload)
	p.Reset(b)
	return p
}

// request is one hop's request and its URL, allocated together.
type request struct {
	http.Request
	url url.URL
}

// loaded is a request whose body is in memory: the first reading of it
// comes in the same allocation, each replay is a fresh payload.
type loaded struct {
	request
	body payload
}

// noHeader is the header of a request sent with none (net/http's
// transport refuses a nil map). Nothing writes to it.
var noHeader = http.Header{}

// Do sends method to target — an escaped path with an optional "?query",
// the form URL.RequestURI returns — under root, over rt (nil means Shared),
// and reads the reply at its declared length. header is sent as it is and
// must not be modified until Do returns. body is replayable, so the
// transport retries a request that met a dead keep-alive connection as it
// does for http.NewRequest. A reply of more than limit bytes is
// sizedio.ErrTooLarge; any other failure to send or read is a *url.Error,
// as from http.Client.Do.
func Do(rt http.RoundTripper, method string, root *url.URL, target string, header http.Header, body []byte, limit int64) (Reply, error) {
	if len(body) == 0 {
		return new(request).send(rt, method, root, target, header, limit)
	}
	l := new(loaded)
	l.body.Reset(body)
	l.Body, l.ContentLength = &l.body, int64(len(body))
	l.GetBody = func() (io.ReadCloser, error) { return newPayload(body), nil }
	return l.send(rt, method, root, target, header, limit)
}

// DoStream is Do with a body that is read as it is sent: size bytes from
// open, which is called once for the request and once more for each replay
// the transport makes of it. The transport closes every body it was given,
// possibly after DoStream has returned. A size of zero sends no body and
// never calls open. An empty method is GET, as for net/http.
func DoStream(rt http.RoundTripper, method string, root *url.URL, target string, header http.Header, size int64, open func() (io.ReadCloser, error), limit int64) (Reply, error) {
	q := new(request)
	if size > 0 {
		q.ContentLength, q.GetBody = size, open
	}
	return q.send(rt, method, root, target, header, limit)
}

// send fills in q's method, URL and header, opens its body if GetBody is
// set and Body not yet, and makes the round trip.
func (q *request) send(rt http.RoundTripper, method string, root *url.URL, target string, header http.Header, limit int64) (Reply, error) {
	if method == "" {
		method = http.MethodGet
	}
	path, query, hasQuery := strings.Cut(target, "?")
	u := &q.url
	*u = *root
	u.Path, u.RawPath = root.Path+path, ""
	u.RawQuery, u.ForceQuery = query, hasQuery && query == ""
	if strings.Contains(path, "%") {
		plain, err := url.PathUnescape(path)
		if err != nil {
			return Reply{}, err
		}
		u.Path, u.RawPath = root.Path+plain, root.EscapedPath()+path
	}
	if header == nil {
		header = noHeader
	}
	req := &q.Request
	req.Method, req.URL, req.Host, req.Header = method, u, u.Host, header
	if req.GetBody != nil && req.Body == nil {
		body, err := req.GetBody()
		if err != nil {
			return q.fail(err)
		}
		req.Body = body
	}
	resp, err := RoundTrip(rt, req)
	if err != nil {
		return q.fail(err)
	}
	defer resp.Body.Close()
	data, err := sizedio.ReadAll(resp.Body, resp.ContentLength, limit)
	if err != nil {
		return q.fail(err)
	}
	return Reply{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

// fail wraps err as http.Client.Do does.
func (q *request) fail(err error) (Reply, error) {
	m := q.Method
	return Reply{}, &url.Error{Op: m[:1] + strings.ToLower(m[1:]), URL: q.url.String(), Err: err}
}
