package hop

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/sizedio"
)

// roundTripper is a transport made of one function.
type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// reply is a 200 response of body with declared as its Content-Length.
func reply(body string, declared int64) *http.Response {
	return &http.Response{StatusCode: 200, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(body)), ContentLength: declared}
}

func mustParse(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestDoRequest: what reaches the transport for each shape of target,
// header and body.
func TestDoRequest(t *testing.T) {
	for _, tc := range []struct {
		name, root, target, body string
		header                   http.Header
		wantURI, wantPath        string
	}{
		{name: "plain path", root: "http://h:1", target: "/gram/status", wantURI: "/gram/status", wantPath: "/gram/status"},
		{name: "query", root: "http://h:1", target: "/gram/status?job=a%3Ab", wantURI: "/gram/status?job=a%3Ab", wantPath: "/gram/status"},
		{name: "bare question mark", root: "http://h:1", target: "/x?", wantURI: "/x?", wantPath: "/x"},
		{name: "escaped slash stays escaped", root: "http://h:1", target: "/ftp/a%2Fb", wantURI: "/ftp/a%2Fb", wantPath: "/ftp/a/b"},
		{name: "root with a path", root: "http://h:1/base", target: "/api/x%20y?z=1", wantURI: "/base/api/x%20y?z=1", wantPath: "/base/api/x y"},
		{name: "body and header", root: "http://h:1", target: "/p", body: "payload",
			header: Header("X-Grid-Token", "t", "X-Grid-Trace", ""), wantURI: "/p", wantPath: "/p"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen *http.Request
			var first, replay string
			c := &http.Client{Transport: roundTripper(func(r *http.Request) (*http.Response, error) {
				seen = r
				if r.Body != nil {
					b, _ := io.ReadAll(r.Body)
					first = string(b)
					// What the transport does after a dead keep-alive
					// connection: ask for the body again.
					again, err := r.GetBody()
					if err != nil {
						t.Fatal(err)
					}
					b, _ = io.ReadAll(again)
					replay = string(b)
				}
				return reply("ok", 2), nil
			})}
			rep, err := Do(c, http.MethodPost, mustParse(t, tc.root), tc.target, tc.header, []byte(tc.body), 16)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Status != 200 || string(rep.Body) != "ok" {
				t.Fatalf("reply %d %q", rep.Status, rep.Body)
			}
			if got := seen.URL.RequestURI(); got != tc.wantURI {
				t.Errorf("request URI %q, want %q", got, tc.wantURI)
			}
			if seen.URL.Path != tc.wantPath || seen.Host != "h:1" || seen.Method != http.MethodPost {
				t.Errorf("path %q host %q method %q", seen.URL.Path, seen.Host, seen.Method)
			}
			if seen.Header == nil {
				t.Error("nil header map handed to the transport")
			}
			if first != tc.body || replay != tc.body || seen.ContentLength != int64(len(tc.body)) {
				t.Errorf("body %q, replayed %q, length %d; want %q", first, replay, seen.ContentLength, tc.body)
			}
			if tc.body == "" && (seen.Body != nil || seen.GetBody != nil) {
				t.Error("empty body sent as a body")
			}
			if tc.header != nil {
				if seen.Header.Get("X-Grid-Token") != "t" {
					t.Errorf("header %v", seen.Header)
				}
				if _, ok := seen.Header["X-Grid-Trace"]; ok {
					t.Error("empty header value sent")
				}
			}
		})
	}
}

// TestDoReply: the reply is read at its declared length, an undeclared
// one to EOF, and one past the limit — declared or delivered — is
// sizedio.ErrTooLarge inside the *url.Error every failure comes back as.
func TestDoReply(t *testing.T) {
	boom := errors.New("connection reset")
	for _, tc := range []struct {
		name     string
		resp     *http.Response
		err      error
		limit    int64
		wantBody string
		wantErr  error
	}{
		{name: "declared", resp: reply("hello", 5), limit: 16, wantBody: "hello"},
		{name: "undeclared", resp: reply("hello", -1), limit: 16, wantBody: "hello"},
		{name: "empty", resp: reply("", 0), limit: 16},
		{name: "exactly the limit", resp: reply("hello", 5), limit: 5, wantBody: "hello"},
		{name: "declared past the limit", resp: reply("hello", 5), limit: 4, wantErr: sizedio.ErrTooLarge},
		{name: "delivered past the limit", resp: reply("hello", -1), limit: 4, wantErr: sizedio.ErrTooLarge},
		{name: "delivered past its declaration and the limit", resp: reply("hello", 2), limit: 4, wantErr: sizedio.ErrTooLarge},
		{name: "transport failure", err: boom, limit: 16, wantErr: boom},
		{name: "body failure", resp: &http.Response{StatusCode: 200, Body: io.NopCloser(io.MultiReader(strings.NewReader("he"), failing{boom})), ContentLength: 5},
			limit: 16, wantErr: boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &http.Client{Transport: roundTripper(func(*http.Request) (*http.Response, error) { return tc.resp, tc.err })}
			rep, err := Do(c, http.MethodGet, mustParse(t, "http://h:1"), "/x?y=1", nil, nil, tc.limit)
			if tc.wantErr == nil {
				if err != nil || string(rep.Body) != tc.wantBody {
					t.Fatalf("got %q, %v; want %q", rep.Body, err, tc.wantBody)
				}
				return
			}
			var ue *url.Error
			if !errors.As(err, &ue) || ue.Op != "Get" || ue.URL != "http://h:1/x?y=1" {
				t.Fatalf("error %#v is not the *url.Error Client.Do would return", err)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantErr)
			}
			if rep.Body != nil || rep.Status != 0 {
				t.Fatalf("failed call returned a reply: %+v", rep)
			}
		})
	}
}

// failing is a reader that fails.
type failing struct{ err error }

func (f failing) Read([]byte) (int, error) { return 0, f.err }

// TestDoOverTheWire runs Do against a real server with a nil client:
// the default transport, a 3xx handed back as the status it is, and a
// refused connection as a *url.Error.
func TestDoOverTheWire(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/moved" {
			http.Redirect(w, r, "/elsewhere", http.StatusFound)
			return
		}
		b, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo-Uri", r.RequestURI)
		w.Write(b)
	}))
	root := mustParse(t, srv.URL)
	rep, err := Do(nil, http.MethodPut, root, "/a%2Fb?c=d", nil, []byte("body"), 16)
	if err != nil || rep.Status != 200 || string(rep.Body) != "body" || rep.Header.Get("X-Echo-Uri") != "/a%2Fb?c=d" {
		t.Fatalf("echo: %+v, %v", rep, err)
	}
	rep, err = Do(nil, http.MethodGet, root, "/moved", nil, nil, 1<<10)
	if err != nil || rep.Status != http.StatusFound {
		t.Fatalf("redirect followed or failed: %+v, %v", rep, err)
	}
	srv.Close()
	var ue *url.Error
	if _, err = Do(nil, http.MethodGet, root, "/x", nil, nil, 16); !errors.As(err, &ue) || ue.Op != "Get" {
		t.Fatalf("closed server: %v", err)
	}
}

// closeCounter is a body that counts its Close calls.
type closeCounter struct {
	io.Reader
	closed *int
}

func (c closeCounter) Close() error { *c.closed++; return nil }

// TestDoStream: the body is read as it is sent, at its declared length,
// from a fresh open per attempt — over the wire, with the replay a dead
// keep-alive connection forces, every body the transport was given is
// closed — and a source that cannot be opened fails the call before
// anything is sent.
func TestDoStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Length", r.Header.Get("Content-Length"))
		w.Write(b)
	}))
	defer srv.Close()
	root := mustParse(t, srv.URL)
	opens, closes := 0, 0
	open := func() (io.ReadCloser, error) {
		opens++
		return closeCounter{strings.NewReader("streamed body"), &closes}, nil
	}
	// The transport of a pooled connection that died: the first body is
	// partly read and given up, GetBody supplies the replay.
	replaying := roundTripper(func(r *http.Request) (*http.Response, error) {
		io.CopyN(io.Discard, r.Body, 4)
		r.Body.Close()
		again, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		r = r.Clone(r.Context())
		r.Body = again
		return http.DefaultTransport.RoundTrip(r)
	})
	rep, err := DoStream(&http.Client{Transport: replaying}, http.MethodPut, root, "/f", nil, 13, open, 64)
	if err != nil || string(rep.Body) != "streamed body" || rep.Header.Get("X-Length") != "13" {
		t.Fatalf("reply %+v, %v", rep, err)
	}
	if opens != 2 || closes != 2 {
		t.Fatalf("%d opens, %d closes; want two of each", opens, closes)
	}

	boom := errors.New("row is corrupt")
	unreachable := &http.Client{Transport: roundTripper(func(*http.Request) (*http.Response, error) {
		t.Error("a request whose body could not be opened was sent")
		return nil, boom
	})}
	var ue *url.Error
	_, err = DoStream(unreachable, http.MethodPut, root, "/f", nil, 13, func() (io.ReadCloser, error) { return nil, boom }, 64)
	if !errors.Is(err, boom) || !errors.As(err, &ue) || ue.Op != "Put" {
		t.Fatalf("unopenable source: %v", err)
	}
	// Nothing to send: no body, and open is never asked.
	rep, err = DoStream(nil, http.MethodPut, root, "/f", nil, 0, func() (io.ReadCloser, error) {
		t.Error("an empty body was opened")
		return nil, boom
	}, 64)
	if err != nil || len(rep.Body) != 0 {
		t.Fatalf("empty body: %+v, %v", rep, err)
	}
}

func TestDoRefusesBadEscape(t *testing.T) {
	c := &http.Client{Transport: roundTripper(func(*http.Request) (*http.Response, error) {
		t.Fatal("a path that does not unescape reached the transport")
		return nil, nil
	})}
	if _, err := Do(c, http.MethodGet, mustParse(t, "http://h:1"), "/a%zz", nil, nil, 16); err == nil {
		t.Fatal("no error")
	}
}

// TestBaseParsesOnce: the same text gives the same URL value back, a
// new text a new one, and a text that does not parse leaves the last
// good one in place.
func TestBaseParsesOnce(t *testing.T) {
	var b Base
	u1, err := b.Parse("http://h:1")
	if err != nil {
		t.Fatal(err)
	}
	if u2, _ := b.Parse("http://h:1"); u2 != u1 {
		t.Error("same text parsed twice")
	}
	if _, err := b.Parse("http://h:1\x7f"); err == nil {
		t.Error("control byte in a URL parsed")
	}
	if u3, _ := b.Parse("http://h:1"); u3 != u1 {
		t.Error("a failed parse dropped the cached URL")
	}
	u4, err := b.Parse("http://h:2/base")
	if err != nil || u4 == u1 || u4.Host != "h:2" {
		t.Errorf("new text: %v, %v", u4, err)
	}
}
