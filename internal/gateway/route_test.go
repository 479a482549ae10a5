package gateway

import (
	"bytes"
	"errors"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/portal"
)

func multipartUpload(t testing.TB, filename string, users ...string) (string, []byte) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", filename)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write([]byte("echo hi\n"))
	for _, user := range users {
		mw.WriteField("user", user)
	}
	mw.WriteField("description", "test")
	mw.Close()
	return mw.FormDataContentType(), buf.Bytes()
}

func TestDecodeRouteTable(t *testing.T) {
	uploadCT, uploadBody := multipartUpload(t, "monte.gsh", "alice")
	twiceCT, twiceBody := multipartUpload(t, "monte.gsh", "bob", "alice")
	cases := []struct {
		name                       string
		method, path, rawQuery, ct string
		body                       []byte
		want                       Route
		wantErr                    bool
	}{
		{"upload", "POST", "/upload", "", uploadCT, uploadBody,
			Route{Kind: KindUpload, Service: "MonteService", Owner: "alice"}, false},
		// The owner is the one the portal publishes under: the query string
		// before the form, the first value of either.
		{"upload query user wins", "POST", "/upload", "user=bob", uploadCT, uploadBody,
			Route{Kind: KindUpload, Service: "MonteService", Owner: "bob", query: "user=bob"}, false},
		{"upload first user field wins", "POST", "/upload", "", twiceCT, twiceBody,
			Route{Kind: KindUpload, Service: "MonteService", Owner: "bob"}, false},
		{"upload GET passes through", "GET", "/upload", "", "", nil, Route{Kind: KindAny}, false},
		{"upload bad content type", "POST", "/upload", "", "text/plain", nil, Route{}, true},
		{"upload bad filename", "POST", "/upload", "", func() string {
			ct, _ := multipartUpload(t, "../../etc/passwd", "alice")
			return ct
		}(), func() []byte {
			_, b := multipartUpload(t, "../../etc/passwd", "alice")
			return b
		}(), Route{}, true},
		{"invoke", "POST", "/api/invoke", "", "application/json",
			[]byte(`{"service":"MonteService","args":{"x":"1"}}`),
			Route{Kind: KindInvoke, Service: "MonteService"}, false},
		{"invoke garbage body", "POST", "/api/invoke", "", "application/json",
			[]byte(`{{{`), Route{}, true},
		{"service read", "GET", "/api/service", "name=MonteService", "", nil,
			Route{Kind: KindService, Service: "MonteService"}, false},
		{"client", "GET", "/api/client", "name=X", "", nil,
			Route{Kind: KindService, Service: "X"}, false},
		{"delete", "POST", "/api/delete", "name=X", "", nil,
			Route{Kind: KindDelete, Service: "X"}, false},
		{"status", "GET", "/api/status", "ticket=t-1", "", nil,
			Route{Kind: KindTicket, Ticket: "t-1"}, false},
		{"wait", "GET", "/api/wait", "ticket=t-2", "", nil,
			Route{Kind: KindTicket, Ticket: "t-2"}, false},
		{"trace page", "GET", "/trace", "ticket=t-3", "", nil,
			Route{Kind: KindTicket, Ticket: "t-3"}, false},
		{"trace path", "GET", "/api/trace/t-4", "", "", nil,
			Route{Kind: KindTicket, Ticket: "t-4"}, false},
		{"bad query", "GET", "/api/status", "a=%zz", "", nil, Route{}, true},
		{"soap", "POST", "/services/MonteService", "", "text/xml", []byte("<x/>"),
			Route{Kind: KindSOAP, Service: "MonteService"}, false},
		{"soap wsdl", "GET", "/services/MonteService", "wsdl", "", nil,
			Route{Kind: KindSOAP, Service: "MonteService"}, false},
		{"soap trailing slash", "POST", "/services/MonteService/", "", "text/xml", []byte("<x/>"),
			Route{Kind: KindSOAP, Service: "MonteService"}, false},
		{"soap index", "GET", "/services/", "", "", nil, Route{Kind: KindAny}, false},
		{"services", "GET", "/api/services", "", "", nil, Route{Kind: KindServices}, false},
		{"stats", "GET", "/api/stats", "", "", nil, Route{Kind: KindStats}, false},
		{"registry", "GET", "/registry", "", "", nil, Route{Kind: KindRegistry}, false},
		{"home", "GET", "/", "", "", nil, Route{Kind: KindAny}, false},
		{"unknown", "GET", "/nope", "", "", nil, Route{Kind: KindAny}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeRoute(tc.method, tc.path, tc.rawQuery, tc.ct, tc.body)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("DecodeRoute = %+v, want error", got)
				}
				if !errors.Is(err, errBadRequest) {
					t.Fatalf("error %v does not wrap errBadRequest", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("DecodeRoute = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestRouteKeyDeterministic(t *testing.T) {
	rt := Route{Kind: KindInvoke, Service: "S"}
	if rt.Key("alice") != "S|alice" {
		t.Fatalf("key %q", rt.Key("alice"))
	}
	up := Route{Kind: KindUpload, Service: "S", Owner: "bob"}
	if up.Key("") != "S|bob" {
		t.Fatalf("upload key %q", up.Key(""))
	}
	// An invoke whose owner resolves must land on the upload's shard.
	if rt.Key("bob") != up.Key("") {
		t.Fatal("upload and invoke disagree on the routing key")
	}
}

// FuzzRoutePath pins the gateway's parse-before-proxy contract: DecodeRoute
// never panics, is deterministic (same request bytes can never route to two
// different shards), rejects garbage with errBadRequest (the gateway's 400),
// and every keyed route has a stable non-empty key component layout. For
// POST /upload it is differential: whatever the bytes, the route names the
// service and owner the portal's own reading of the form gives
// (portal.UploadIdentity, which FuzzUploadIdentity in internal/portal holds
// to readUploadForm), or both refuse.
func FuzzRoutePath(f *testing.F) {
	uploadCT, uploadBody := multipartUpload(f, "demo.gsh", "alice")
	f.Add("POST", "/upload", "", uploadCT, uploadBody)
	f.Add("POST", "/api/invoke", "", "application/json", []byte(`{"service":"S"}`))
	f.Add("GET", "/api/status", "ticket=t-9", "", []byte(nil))
	f.Add("GET", "/api/trace/abc", "", "", []byte(nil))
	f.Add("POST", "/services/DemoService", "", "text/xml", []byte("<e/>"))
	f.Add("GET", "/api/status", "a=%zz", "", []byte(nil))
	f.Add("POST", "/upload", "", "multipart/form-data; boundary=x", []byte("--x--"))
	f.Add("GET", "/\x00\xff", "=&=%", "garbage", []byte{0, 1, 2})
	f.Add("POST", "/upload", "user=bob&user=carol", uploadCT, uploadBody)
	twiceCT, twiceBody := multipartUpload(f, "demo.gsh", "bob", "alice")
	f.Add("POST", "/upload", "a=%zz&user=", twiceCT, twiceBody)
	f.Add("POST", "/upload", "", uploadCT, uploadBody[:len(uploadBody)-8])
	f.Fuzz(func(t *testing.T, method, path, rawQuery, contentType string, body []byte) {
		rt1, err1 := DecodeRoute(method, path, rawQuery, contentType, body)
		rt2, err2 := DecodeRoute(method, path, rawQuery, contentType, body)
		if (err1 == nil) != (err2 == nil) || rt1 != rt2 {
			t.Fatalf("non-deterministic: %+v/%v vs %+v/%v", rt1, err1, rt2, err2)
		}
		if method == http.MethodPost && path == "/upload" {
			fileName, user, err := portal.UploadIdentity(contentType, rawQuery, body)
			service, nameErr := core.ServiceNameFor(fileName)
			switch refused := err != nil || nameErr != nil; {
			case refused != (err1 != nil):
				t.Fatalf("the portal reads (%q, %q, %v, %v), the route is %+v, %v", fileName, user, err, nameErr, rt1, err1)
			case !refused && (rt1.Service != service || rt1.Owner != user):
				t.Fatalf("the portal publishes %s for %q, routed as %+v", service, user, rt1)
			}
		}
		if err1 != nil {
			// Every decode failure is the gateway's own 400.
			if !errors.Is(err1, errBadRequest) {
				t.Fatalf("error %v does not wrap errBadRequest", err1)
			}
			return
		}
		switch rt1.Kind {
		case KindAny, KindUpload, KindInvoke, KindService, KindSOAP,
			KindDelete, KindTicket, KindServices, KindStats, KindAudit, KindRegistry:
		default:
			t.Fatalf("invalid kind %d", rt1.Kind)
		}
		if rt1.Keyed() {
			key := rt1.Key("ownerX")
			if key != rt1.Key("ownerX") {
				t.Fatal("unstable key")
			}
			if !strings.Contains(key, "|") {
				t.Fatalf("key %q lacks separator", key)
			}
			// A successful upload decode always carries a portal-legal
			// service name.
			if rt1.Kind == KindUpload && rt1.Service == "" {
				t.Fatal("upload route with empty service")
			}
		}
		if method == http.MethodPost && path == "/upload" && rt1.Kind != KindUpload && rt1.Kind != KindAny {
			t.Fatalf("POST /upload decoded as %v", rt1.Kind)
		}
	})
}
