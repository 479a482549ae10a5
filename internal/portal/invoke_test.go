package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/errcode"
)

// FuzzInvokeBody holds the one reader of an /api/invoke body to the
// decode it replaced — json.NewDecoder over the body's first MB — on any
// bytes: the same request, nil args told apart from empty ones, or the same
// error. InvokeService, what the fleet gateway routes by, names the same
// service or refuses too.
func FuzzInvokeBody(f *testing.F) {
	for _, in := range []string{
		`{"service":"S","args":{"n":"1"}}`,
		`{"service":"S","args":null}`,
		`{"service":"S","args":{}}`,
		`{"args":{"n":"1","k\u00e9y":"\n"},"service":"S\/T"}` + "\n",
		`{"service":"S"}`,
		``, `{`, `[]`, `null`, ` {"service":"S"}`, `{"service":null}`,
		"{\"service\":\"\xff\"}",
		`{"service":"S","extra":1}`,
		// Bytes after the object, and a second object.
		`{"service":"S","args":{"n":"1"}} trailing`,
		`{"service":"S"}{"service":"T"}`,
		// Mixed-case keys.
		`{"Service":"S","ARGS":{"n":"1"}}`,
		`{"service":"S","Service":"T"}`,
		// A duplicate args key, and a duplicate key inside args.
		`{"service":"S","args":{"a":"1"},"args":{"b":"2"}}`,
		`{"service":"S","args":{"a":"1"},"args":null}`,
		`{"service":"S","args":{"n":"1","n":"2"}}`,
		// A non-string arg.
		`{"service":"S","args":{"n":1}}`,
		`{"service":"S","args":{"n":null}}`,
	} {
		f.Add([]byte(in))
	}
	// A body cut at 1 MB: the object closes past the cut ...
	f.Add([]byte(`{"service":"S","args":{"pad":"` + strings.Repeat("x", maxInvokeBody) + `"}}`))
	// ... or before it, and what follows is never read.
	f.Add(append([]byte(`{"service":"S"}`), bytes.Repeat([]byte("x"), maxInvokeBody)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want InvokeRequest
		wantErr := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxInvokeBody)).Decode(&want)
		got, err := ReadInvokeRequest(bytes.NewReader(body), int64(len(body)))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%q:\nread          %#v, %v\nencoding/json %#v, %v", body, got, err, want, wantErr)
		}
		// The gateway reads the whole body, the portal its first MB.
		if service, serr := InvokeService(body); len(body) <= maxInvokeBody &&
			((serr != nil) != (err != nil) || err == nil && service != got.Service) {
			t.Fatalf("%q: the portal reads %q, %v; the gateway %q, %v", body, got.Service, err, service, serr)
		}
	})
}

// TestInvokeReadAllocations: the body Client writes is read into one
// buffer and a map, not through encoding/json's decoder (14 objects).
func TestInvokeReadAllocations(t *testing.T) {
	const body = `{"service":"S","args":{"n":"1"}}`
	var r strings.Reader
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(body)
		req, err := ReadInvokeRequest(&r, int64(len(body)))
		if err != nil || req.Service != "S" || len(req.Args) != 1 || req.Args["n"] != "1" {
			t.Fatalf("read %+v, %v", req, err)
		}
	})
	t.Logf("invoke read: %.0f objects", allocs)
	if allocs > 5 {
		t.Fatalf("reading an invoke body allocates %.0f objects, want <= 5", allocs)
	}
}

// FuzzQueryGet holds the doors' one query scan to net/url: the value
// url.ParseQuery(raw).Get(key) reads, and ParseQuery's error, for any
// query and key.
func FuzzQueryGet(f *testing.F) {
	for _, seed := range [][2]string{
		{"a=1;b=2", "a"}, {"%zz", "%zz"}, {"+", " "}, {"", ""}, {"", "ticket"},
		{"ticket=a&ticket=b", "ticket"}, {"ticket&name=x", "ticket"}, {"x=%41+b&ticket=%zz&ticket=t", "x"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		got, err := QueryGet(raw, key)
		q, wantErr := url.ParseQuery(raw)
		if want := q.Get(key); got != want || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("QueryGet(%q, %q) = %q, %v; url.ParseQuery: %q, %v", raw, key, got, err, want, wantErr)
		}
	})
}

// TestHotRepliesRenderLikeTheMaps: /api/invoke and /api/wait answered
// with map[string]string until their replies became structs; the bytes
// on the wire are those the maps gave, whatever the values hold.
func TestHotRepliesRenderLikeTheMaps(t *testing.T) {
	awkward := []string{"", "plain", "3.14159\n", `quote " backslash \ slash /`, "<script>&amp;</script>",
		"tab\tnul\x00bell\x07", "non-UTF-8 \xff\xfe", "\u2028 line \u2029 sep", "größe 大小 😀"}
	render := func(v any) string {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		return rec.Body.String()
	}
	for i, a := range awkward {
		b, c := awkward[(i+1)%len(awkward)], awkward[(i+2)%len(awkward)]
		got := render(InvokeReply{JobID: a, Site: b, Ticket: c})
		if want := render(map[string]string{"ticket": c, "job_id": a, "site": b}); got != want {
			t.Errorf("invoke reply %q, the map gave %q", got, want)
		}
		got = render(WaitReply{Message: a, Output: b, State: c})
		if want := render(map[string]string{"state": c, "message": a, "output": b}); got != want {
			t.Errorf("wait reply %q, the map gave %q", got, want)
		}
	}
}

// TestErrorCancelDeleteRepliesRenderLikeTheMaps: the last three
// map[string]string replies, golden and against the maps they were.
func TestErrorCancelDeleteRepliesRenderLikeTheMaps(t *testing.T) {
	render := func(status int, write func(w http.ResponseWriter)) string {
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		return rec.Body.String()
	}
	asJSON := func(v any) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, v) }
	}
	if got, want := render(http.StatusOK, asJSON(deleteReply{Deleted: "MonteService"})), `{"deleted":"MonteService"}`+"\n"; got != want {
		t.Errorf("delete reply %q, want %q", got, want)
	}
	if got, want := render(http.StatusOK, asJSON(cancelReply{State: "cancelling"})), `{"state":"cancelling"}`+"\n"; got != want {
		t.Errorf("cancel reply %q, want %q", got, want)
	}
	got := render(http.StatusNotFound, func(w http.ResponseWriter) { WriteError(w, core.ErrNoSuchService) })
	if want := `{"code":"not_found","error":"` + core.ErrNoSuchService.Error() + `"}` + "\n"; got != want {
		t.Errorf("error envelope %q, want %q", got, want)
	}
	for _, s := range []string{"", `quote " backslash \`, "<script>&amp;</script>", "nul\x00 non-UTF-8 \xff", "  größe 😀"} {
		if got, want := render(http.StatusOK, asJSON(deleteReply{Deleted: s})), render(http.StatusOK, asJSON(map[string]string{"deleted": s})); got != want {
			t.Errorf("delete reply %q, the map gave %q", got, want)
		}
		got := render(http.StatusBadRequest, func(w http.ResponseWriter) { errcode.Refuse(http.StatusBadRequest, s).Write(w) })
		want := render(http.StatusBadRequest, func(w http.ResponseWriter) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": s, "code": "bad_request"})
		})
		if got != want {
			t.Errorf("error envelope %q, the map gave %q", got, want)
		}
	}
}
