package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/sizedio"
)

// lowerMaxBody shrinks the body bound for one test, so "one byte too
// many" does not take a quarter of a gigabyte to say.
func lowerMaxBody(t *testing.T, limit int64) {
	old := maxBody
	maxBody = limit
	t.Cleanup(func() { maxBody = old })
}

// TestOversizeRequestBodyRefused: a request body past maxBody used to be
// cut at the limit and proxied truncated. It is refused with 413 — whether
// the client declared the length or streamed it — and reaches no
// appliance.
func TestOversizeRequestBodyRefused(t *testing.T) {
	const limit = 8 << 10
	lowerMaxBody(t, limit)
	w := bootFleet(t, 2, nil)
	proxied := func() (n uint64) {
		for _, m := range w.gw.members {
			n += countsOf(m).Proxied
		}
		return n
	}
	post := func(body io.Reader) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, w.gw.BaseURL+"/upload", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := web.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct{ Code string }
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Code
	}
	before := proxied()
	big := make([]byte, limit+1)
	for name, body := range map[string]io.Reader{
		"declared":   bytes.NewReader(big),                      // Content-Length: limit+1
		"undeclared": struct{ io.Reader }{bytes.NewReader(big)}, // chunked
	} {
		if status, code := post(body); status != http.StatusRequestEntityTooLarge || code != "too_large" {
			t.Errorf("%s body of maxBody+1: status %d code %q, want 413 too_large", name, status, code)
		}
	}
	if got := proxied(); got != before {
		t.Fatalf("an oversize body was proxied (%d -> %d upstream requests)", before, got)
	}
	// At the bound the size is no objection (the route decoder's verdict
	// on a body that is no upload form is not this test's business).
	if status, _ := post(bytes.NewReader(big[:limit])); status == http.StatusRequestEntityTooLarge {
		t.Fatal("a body of exactly maxBody was refused for its size")
	}
}

// TestOversizeResponseBodyIsAProxyError: the same bound on the way back.
// An upstream response past maxBody is a failed hop, not a reply cut
// short and relayed as if it were whole.
func TestOversizeResponseBodyIsAProxyError(t *testing.T) {
	const limit = 8 << 10
	lowerMaxBody(t, limit)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		if r.URL.Path == "/declared" {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		}
		for sent := 0; sent < n; sent += 1 << 10 {
			w.Write(make([]byte, min(1<<10, n-sent)))
			if r.URL.Path != "/declared" {
				w.(http.Flusher).Flush() // forces chunked framing
			}
		}
	}))
	defer upstream.Close()
	g := &Gateway{rt: upstream.Client().Transport}
	for _, path := range []string{"/declared", "/undeclared"} {
		m := &member{id: "big", base: upstream.URL, gw: g}
		get := func(n int) (*bufferedResponse, error) {
			r := httptest.NewRequest(http.MethodGet, path+"?n="+strconv.Itoa(n), nil)
			return g.forward(m, r, nil, nil)
		}
		if _, err := get(limit + 1); !errors.Is(err, sizedio.ErrTooLarge) || countsOf(m).ProxyErrors != 1 {
			t.Errorf("%s response of maxBody+1: err %v, %d proxy errors; want ErrTooLarge counted once", path, err, countsOf(m).ProxyErrors)
		}
		if resp, err := get(limit); err != nil || len(resp.body) != limit {
			t.Errorf("%s response of exactly maxBody: %v", path, err)
		}
	}
}

// TestCatalogKeepsTheUploadBuffer: an upload's body is the request's own
// buffer, which nothing reuses once the request is served, so the catalog
// keeps that buffer instead of a second copy: learning a 1 MB upload
// allocates the entry and nothing of the body's size. A buffer that grew
// past its body (an upload of unknown length) is copied to the body's
// size, so the catalog keeps none of its slack.
func TestCatalogKeepsTheUploadBuffer(t *testing.T) {
	t.Run("unknown length", func(t *testing.T) {
		g := &Gateway{catalog: map[string]*catalogEntry{}}
		body := make([]byte, 1<<20+1, 2<<20)
		g.learn(Route{Kind: KindUpload, Service: "Chunked"}, nil, nil, body, http.StatusOK)
		if e := g.catalog["Chunked"]; e == nil || len(e.body) != len(body) || cap(e.body) != len(body) {
			t.Fatal("the catalog keeps the slack of a buffer that grew past its body")
		}
	})
	g := &Gateway{catalog: map[string]*catalogEntry{}}
	body := make([]byte, 1<<20)
	rt := Route{Kind: KindUpload, Service: "BigService"}
	g.learn(rt, nil, nil, body, http.StatusOK)
	if e := g.catalog["BigService"]; e == nil || unsafe.SliceData(e.body) != unsafe.SliceData(body) || len(e.body) != len(body) {
		t.Fatal("the catalog entry does not share the request's buffer")
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		g.learn(rt, nil, nil, body, http.StatusOK)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("learning a 1 MB upload allocates %d bytes, want < 4 KB", per)
	}
}
