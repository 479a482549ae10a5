package hop

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// FuzzRequestHead holds the transport's request writer to
// (*http.Request).Write, the writer it replaced: for any method, target and
// header map — CR and LF in values, invalid keys, empty values — the bytes
// are the same, or both refuse the request. fields is key NUL value NUL ...
func FuzzRequestHead(f *testing.F) {
	f.Add("GET", "/a/b", "c=d", "", "")
	f.Add("POST", "/p", "", "X-Grid-Token\x00t\x00Content-Type\x00text/xml", "body")
	f.Add("PUT", "/f", "", "User-Agent\x00 spaced \r\nout \x00bad key\x00v\x00X-Empty\x00\x00x-lower\x00a\rb", "")
	f.Add("DELETE", "", "q\x01", "Host\x00evil\x00Content-Length\x0099\x00Connection\x00close", "")
	f.Add("", "*", "", "User-Agent\x00\x00Trailer\x00X\x00Transfer-Encoding\x00chunked", "x")
	f.Add("CONNECT", "", "", "Accept\x00a\x00Accept\x00b", "")
	f.Fuzz(func(t *testing.T, method, path, query, fields, body string) {
		header := http.Header{}
		kv := strings.Split(fields, "\x00")
		for i := 0; i+1 < len(kv); i += 2 {
			header[kv[i]] = append(header[kv[i]], kv[i+1])
		}
		req := func() *http.Request {
			r := &http.Request{Method: method, Host: "h:1", Header: header,
				URL: &url.URL{Scheme: "http", Host: "h:1", Path: path, RawQuery: query}}
			if body != "" {
				r.Body, r.ContentLength = io.NopCloser(strings.NewReader(body)), int64(len(body))
			}
			return r
		}
		var want, got bytes.Buffer
		werr := req().Write(&want)
		r := req()
		tg, gerr := newTarget(r)
		if gerr == nil {
			bw := bufio.NewWriter(&got)
			writeHead(bw, r, &tg)
			bw.WriteString(body)
			bw.Flush()
		}
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("net/http: %v; hop: %v", werr, gerr)
		case werr == nil && got.String() != want.String():
			t.Fatalf("hop wrote\n%q\nnet/http\n%q", got.String(), want.String())
		}
	})
}

// TestInterimRepliesBounded: five interim replies are read past, as
// http.Transport reads them; a sixth is an error, not an unbounded wait.
func TestInterimRepliesBounded(t *testing.T) {
	for interim, ok := range map[int]bool{5: true, 6: false} {
		raw := strings.Repeat("HTTP/1.1 100 Continue\r\n\r\n", interim) + "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
		var buf []byte
		resp, err := readReply(bufio.NewReader(strings.NewReader(raw)), &buf, &http.Request{Method: http.MethodGet})
		if (err == nil) != ok || ok && resp.StatusCode != http.StatusOK {
			t.Errorf("%d interim replies: %v, %v", interim, resp, err)
		}
	}
}

// capture is what srv writes, byte for byte, in answer to the raw request
// req, which asks it to close the connection after its reply.
func capture(f *testing.F, srv *httptest.Server, req string) []byte {
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, req); err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzReadReply holds the transport's reply reader to http.ReadResponse,
// past interim 1xx replies as the transport reads: a reply hop accepts,
// body and all, net/http accepts too, with the same status, protocol,
// header, body, ContentLength, TransferEncoding and Close. hop may refuse
// more (DESIGN.md §6.3 names what). Seeded with what a Go server writes.
func FuzzReadReply(f *testing.F) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/json":
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"job_id":"siteA:job-1","site":"siteA"}`)
		case "/etag":
			w.Header().Set("ETag", `"v1"`)
			w.WriteHeader(http.StatusNotModified)
		case "/continue":
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, "ok")
		case "/big":
			io.WriteString(w, strings.Repeat("0123456789abcdef", 40<<10/16))
		case "/events":
			w.Header().Set("Content-Type", "text/event-stream")
			for _, frame := range []string{"event: hello\n\n", "event: state\ndata: {\"state\":\"DONE\"}\n\n"} {
				io.WriteString(w, frame)
				w.(http.Flusher).Flush()
			}
		}
	}))
	f.Cleanup(srv.Close)
	// What a Go server writes, hop reads whole.
	ask := func(method, path, more string) []byte {
		raw := capture(f, srv, method+" "+path+" HTTP/1.1\r\nHost: h\r\nConnection: close\r\n"+more+"\r\n")
		var buf []byte
		resp, err := readReply(bufio.NewReader(bytes.NewReader(raw)), &buf, &http.Request{Method: method})
		if err == nil {
			_, err = io.ReadAll(resp.Body)
		}
		if err != nil {
			f.Fatalf("%s %s: hop refuses %q: %v", method, path, raw, err)
		}
		return raw
	}
	f.Add(ask("GET", "/json", ""), false)
	f.Add(ask("GET", "/etag", "If-None-Match: \"v1\"\r\n"), false)
	f.Add(ask("HEAD", "/json", ""), true)
	f.Add(ask("POST", "/continue", "Expect: 100-continue\r\nContent-Length: 4\r\n\r\nbody"), false)
	f.Add(ask("GET", "/big", ""), false)
	f.Add(ask("GET", "/events", ""), false)
	for _, raw := range []string{
		"HTTP/1.1 200 OK\r\n\r\nread to close",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\ncontent-length: 2\r\nPragma: no-cache\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 0\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"HTTP/1.1 204 No Content\r\nConnection: Close, x\r\nX: \t a b \t\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: a\r\n folded\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(raw), false)
	}
	f.Fuzz(func(t *testing.T, raw []byte, head bool) {
		req := &http.Request{Method: http.MethodGet}
		if head {
			req.Method = http.MethodHead
		}
		var buf []byte
		got, err := readReply(bufio.NewReader(bytes.NewReader(raw)), &buf, req)
		if err != nil {
			return
		}
		gotBody, err := io.ReadAll(got.Body)
		if err != nil {
			return
		}
		br := bufio.NewReader(bytes.NewReader(raw))
		want, err := http.ReadResponse(br, req)
		for err == nil && want.StatusCode < 200 {
			want, err = http.ReadResponse(br, req)
		}
		if err != nil {
			t.Fatalf("hop accepts %q; net/http: %v", raw, err)
		}
		wantBody, err := io.ReadAll(want.Body)
		if err != nil {
			t.Fatalf("hop reads the body of %q; net/http: %v", raw, err)
		}
		g := []any{got.Status, got.StatusCode, got.Proto, got.ProtoMajor, got.ProtoMinor, got.Header, string(gotBody), got.ContentLength, got.TransferEncoding, got.Close}
		w := []any{want.Status, want.StatusCode, want.Proto, want.ProtoMajor, want.ProtoMinor, want.Header, string(wantBody), want.ContentLength, want.TransferEncoding, want.Close}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%q:\nhop      %q\nnet/http %q", raw, g, w)
		}
	})
}
