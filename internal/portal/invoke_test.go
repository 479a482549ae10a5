package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"reflect"
	"strings"
	"testing"
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
