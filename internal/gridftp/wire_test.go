package gridftp

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// recorder answers every request 201 with no server behind it and keeps
// what it was sent.
type recorder struct {
	reqs   []*http.Request
	bodies []string
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	sent := ""
	if req.Body != nil {
		b, _ := io.ReadAll(req.Body)
		req.Body.Close()
		sent = string(b)
	}
	r.reqs, r.bodies = append(r.reqs, req), append(r.bodies, sent)
	return &http.Response{StatusCode: http.StatusCreated, Body: http.NoBody,
		Header: http.Header{ChecksumHeader: {req.Header.Get(ChecksumHeader)}}}, nil
}

// TestWireUnchanged pins what a chunk PUT, a plain PUT of a name that
// needs escaping, and a commit put on the wire: method, URL, header set
// and body, as http.NewRequest and Client.Do sent them.
func TestWireUnchanged(t *testing.T) {
	f := newFixture(t)
	rec := &recorder{}
	tc := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	c := &Client{BaseURL: "http://ftp.invalid:2811", Cred: f.alice.Cred, Transport: rec, Trace: tc}
	chunk := "chunk bytes"
	sum := sha256.Sum256([]byte(chunk))
	digest := hex.EncodeToString(sum[:])

	if err := c.PutChunk(digest, []byte(chunk)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("a b;c%.gsh", []byte(chunk)); err != nil {
		t.Fatal(err)
	}
	c.Trace = ""
	if _, err := c.Commit("exe.gsh", "gzip", digest, []string{digest}); err != nil {
		t.Fatal(err)
	}
	manifest := `{"name":"exe.gsh","encoding":"gzip","file_sha256":"` + digest + `","chunks":["` + digest + `"]}`

	want := []struct {
		method, url, body string
		header            map[string]string
		signed            []byte
	}{
		{"PUT", "http://ftp.invalid:2811/ftp/chunk/" + digest, chunk,
			map[string]string{"Content-Type": "application/octet-stream", trace.Header: tc},
			signPayload("CHUNK-PUT", digest, "")},
		{"PUT", "http://ftp.invalid:2811/ftp/a%20b%3Bc%25.gsh", chunk,
			map[string]string{"Content-Type": "application/octet-stream", trace.Header: tc, ChecksumHeader: digest},
			signPayload("PUT", "a b;c%.gsh", digest)},
		{"POST", "http://ftp.invalid:2811/ftp/commit", manifest,
			map[string]string{"Content-Type": "application/json", EncodingHeader: "gzip"},
			signPayload("CHUNK-COMMIT", "exe.gsh", digest)},
	}
	for i, w := range want {
		req := rec.reqs[i]
		if req.Method != w.method || req.URL.String() != w.url || rec.bodies[i] != w.body || req.ContentLength != int64(len(w.body)) {
			t.Errorf("request %d: %s %s body %q (declared %d)\nwant       %s %s body %q", i,
				req.Method, req.URL, rec.bodies[i], req.ContentLength, w.method, w.url, w.body)
		}
		got := map[string]string{}
		for k, vs := range req.Header {
			got[k] = strings.Join(vs, "|")
		}
		tok := got[TokenHeader]
		delete(got, TokenHeader)
		if !reflect.DeepEqual(got, w.header) {
			t.Errorf("request %d: headers %v, want %v plus the token", i, got, w.header)
		}
		if id, err := f.srv.authenticate(&http.Request{Header: http.Header{TokenHeader: {tok}}}, w.signed); err != nil || id != f.alice.Cred.Subject() {
			t.Errorf("request %d: token does not verify over %q: %v", i, w.signed, err)
		}
		if again, err := req.GetBody(); err != nil {
			t.Errorf("request %d: %v", i, err)
		} else if b, _ := io.ReadAll(again); string(b) != w.body {
			t.Errorf("request %d: replayed body %q", i, b)
		}
	}
}
