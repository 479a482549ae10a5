package gateway

import (
	"bytes"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/appliance/appliancetest"
	"repro/internal/core"
	"repro/internal/portal"
)

func multipartUpload(filename string, users ...string) (string, string) {
	parts := []appliancetest.Part{{Name: "file", File: filename, Value: "echo hi\n"}}
	for _, user := range users {
		parts = append(parts, appliancetest.Part{Name: "user", Value: user})
	}
	return appliancetest.Form(append(parts, appliancetest.Part{Name: "description", Value: "test"})...)
}

func TestDecodeRouteTable(t *testing.T) {
	uploadCT, uploadBody := multipartUpload("monte.gsh", "alice")
	twiceCT, twiceBody := multipartUpload("monte.gsh", "bob", "alice")
	bobCT, bobBody := multipartUpload("monte.gsh", "bob")
	badCT, badBody := multipartUpload("monte$.gsh", "alice")
	refused := Route{Kind: -1} // DecodeRoute refuses the request: errBadRequest
	monte := func(k Kind) Route { return Route{Kind: k, Service: "MonteService"} }
	x := func(k Kind) Route { return Route{Kind: k, Service: "XService"} }
	cases := []struct {
		name, method, path, rawQuery, ct, body string
		want                                   Route
	}{
		{"upload", "POST", "/upload", "", uploadCT, uploadBody, monte(KindUpload)},
		// Whoever the upload names as its owner, the route is the service's:
		// a service's ring key is its name and nothing else. The query
		// string rides along for a replay, which publishes under the owner
		// the portal reads first from it.
		{"upload query user wins", "POST", "/upload", "user=bob", uploadCT, uploadBody, Route{Kind: KindUpload, Service: "MonteService", query: "user=bob"}},
		{"upload first user field wins", "POST", "/upload", "", twiceCT, twiceBody, monte(KindUpload)},
		{"upload of another owner", "POST", "/upload", "user=carol", bobCT, bobBody, Route{Kind: KindUpload, Service: "MonteService", query: "user=carol"}},
		{"upload GET passes through", "GET", "/upload", "", "", "", Route{Kind: KindAny}},
		{"upload bad content type", "POST", "/upload", "", "text/plain", "", refused},
		// A name the portal refuses ('$'); a path in the file name is no
		// objection, multipart reads the base name.
		{"upload bad filename", "POST", "/upload", "", badCT, badBody, refused},
		{"invoke", "POST", "/api/invoke", "", "application/json", `{"service":"MonteService","args":{"x":"1"}}`, monte(KindInvoke)},
		{"invoke garbage body", "POST", "/api/invoke", "", "application/json", `{{{`, refused},
		{"service read", "GET", "/api/service", "name=MonteService", "", "", monte(KindService)},
		{"client", "GET", "/api/client", "name=X", "", "", Route{Kind: KindService, Service: "X"}},
		{"delete", "POST", "/api/delete", "name=X", "", "", Route{Kind: KindDelete, Service: "X"}},
		// A ticket routes by the service it names; one that names none is
		// any appliance's to refuse.
		{"status", "GET", "/api/status", "ticket=inv-000001-MonteService-0123456789ab", "", "", monte(KindTicket)},
		{"output", "GET", "/api/output", "ticket=inv-000002-MonteService-0123456789ab", "", "", monte(KindTicket)},
		{"outfile", "GET", "/api/outfile", "ticket=inv-000003-XService-0123456789ab&name=out.txt", "", "", x(KindTicket)},
		{"wait", "GET", "/api/wait", "ticket=inv-000004-%E6%95%B0%E6%8D%AEService-0123456789ab", "", "", Route{Kind: KindTicket, Service: "数据Service"}},
		{"cancel", "POST", "/api/cancel", "ticket=inv-1000000-XService-0123456789ab", "", "", x(KindTicket)},
		{"trace query", "GET", "/api/trace", "ticket=inv-000005-XService-0123456789ab", "", "", x(KindTicket)},
		{"trace page", "GET", "/trace", "ticket=inv-000006-XService-0123456789ab", "", "", x(KindTicket)},
		{"trace path", "GET", "/api/trace/inv-000007-XService-0123456789ab", "", "", "", x(KindTicket)},
		{"old ticket", "GET", "/api/wait", "ticket=inv-000001-0123456789ab", "", "", Route{Kind: KindAny}},
		{"no ticket", "GET", "/api/status", "", "", "", Route{Kind: KindAny}},
		{"garbage ticket path", "GET", "/api/trace/t-4", "", "", "", Route{Kind: KindAny}},
		{"bad query", "GET", "/api/status", "a=%zz", "", "", refused},
		{"soap", "POST", "/services/MonteService", "", "text/xml", "<x/>", monte(KindSOAP)},
		{"soap wsdl", "GET", "/services/MonteService", "wsdl", "", "", monte(KindSOAP)},
		{"soap trailing slash", "POST", "/services/MonteService/", "", "text/xml", "<x/>", monte(KindSOAP)},
		{"soap index", "GET", "/services/", "", "", "", Route{Kind: KindAny}},
		{"services", "GET", "/api/services", "", "", "", Route{Kind: KindServices}},
		{"stats", "GET", "/api/stats", "", "", "", Route{Kind: KindStats}},
		{"registry", "GET", "/registry", "", "", "", Route{Kind: KindRegistry}},
		{"home", "GET", "/", "", "", "", Route{Kind: KindAny}},
		{"unknown", "GET", "/nope", "", "", "", Route{Kind: KindAny}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeRoute(tc.method, tc.path, tc.rawQuery, tc.ct, []byte(tc.body))
			switch {
			case tc.want == refused && !errors.Is(err, errBadRequest):
				t.Fatalf("DecodeRoute = %+v, %v; want an error wrapping errBadRequest", got, err)
			case tc.want != refused && (err != nil || got != tc.want):
				t.Fatalf("DecodeRoute = %+v, %v; want %+v", got, err, tc.want)
			}
		})
	}
}

// TestDecodeRouteAllocations: an invoke body is routed by the portal's
// walk, not through encoding/json's decoder (14 objects).
func TestDecodeRouteAllocations(t *testing.T) {
	body := []byte(`{"service":"S","args":{"n":"1"}}`)
	allocs := testing.AllocsPerRun(200, func() {
		rt, err := DecodeRoute(http.MethodPost, "/api/invoke", "", "application/json", body)
		if err != nil || rt != (Route{Kind: KindInvoke, Service: "S"}) {
			t.Fatalf("DecodeRoute = %+v, %v", rt, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("DecodeRoute of an invoke allocates %.0f objects, want <= 1", allocs)
	}
}

// FuzzRoutePath pins the gateway's parse-before-proxy contract: DecodeRoute
// never panics, is deterministic (same request bytes can never route to two
// different shards), and rejects garbage with errBadRequest (the gateway's
// 400). For POST /upload it is differential: whatever the bytes, the route
// names the service the portal's own reading of the form gives
// (portal.UploadIdentity, which FuzzUploadIdentity in internal/portal holds
// to readUploadForm), or both refuse. So it is for POST /api/invoke: the
// route names the service portal.ReadInvokeRequest reads, or both refuse
// (FuzzInvokeBody in internal/portal holds that reader to encoding/json).
func FuzzRoutePath(f *testing.F) {
	uploadCT, uploadForm := multipartUpload("demo.gsh", "alice")
	uploadBody := []byte(uploadForm)
	f.Add("POST", "/upload", "", uploadCT, uploadBody)
	f.Add("POST", "/api/invoke", "", "application/json", []byte(`{"service":"S"}`))
	f.Add("GET", "/api/status", "ticket=t-9", "", []byte(nil))
	f.Add("GET", "/api/wait", "ticket=inv-000009-DemoService-0123456789ab", "", []byte(nil))
	f.Add("GET", "/api/trace/abc", "", "", []byte(nil))
	f.Add("GET", "/api/trace/inv-000009-DemoService-0123456789ab", "", "", []byte(nil))
	f.Add("POST", "/services/DemoService", "", "text/xml", []byte("<e/>"))
	f.Add("GET", "/api/status", "a=%zz", "", []byte(nil))
	f.Add("POST", "/upload", "", "multipart/form-data; boundary=x", []byte("--x--"))
	f.Add("GET", "/\x00\xff", "=&=%", "garbage", []byte{0, 1, 2})
	f.Add("POST", "/upload", "user=bob&user=carol", uploadCT, uploadBody)
	twiceCT, twiceBody := multipartUpload("demo.gsh", "bob", "alice")
	f.Add("POST", "/upload", "a=%zz&user=", twiceCT, []byte(twiceBody))
	f.Add("POST", "/upload", "", uploadCT, uploadBody[:len(uploadBody)-8])
	f.Add("POST", "/api/invoke", "", "application/json", []byte(`{"service":"S","args":{"n":"1"}}`))
	f.Add("POST", "/api/invoke", "", "application/json", []byte(`{"service":"S","args":{"n":1}}`))
	f.Add("POST", "/api/invoke", "", "application/json", []byte(`{"SERVICE":"S","args":null} {`))
	f.Add("POST", "/api/invoke", "", "application/json", []byte(`{"service":"S","args":{},"args":{"a":"1"}}`))
	f.Fuzz(func(t *testing.T, method, path, rawQuery, contentType string, body []byte) {
		rt1, err1 := DecodeRoute(method, path, rawQuery, contentType, body)
		rt2, err2 := DecodeRoute(method, path, rawQuery, contentType, body)
		if (err1 == nil) != (err2 == nil) || rt1 != rt2 {
			t.Fatalf("non-deterministic: %+v/%v vs %+v/%v", rt1, err1, rt2, err2)
		}
		if method == http.MethodPost && path == "/upload" {
			fileName, err := portal.UploadIdentity(contentType, body)
			service, nameErr := core.ServiceNameFor(fileName)
			switch refused := err != nil || nameErr != nil; {
			case refused != (err1 != nil):
				t.Fatalf("the portal reads (%q, %v, %v), the route is %+v, %v", fileName, err, nameErr, rt1, err1)
			case !refused && rt1.Service != service:
				t.Fatalf("the portal publishes %s, routed as %+v", service, rt1)
			}
		}
		// The appliance reads the first MB of an invoke body, the gateway all
		// of it: past that, a route may name what the appliance then refuses.
		if method == http.MethodPost && path == "/api/invoke" && len(body) <= 1<<20 {
			req, err := portal.ReadInvokeRequest(bytes.NewReader(body), int64(len(body)))
			if (err != nil) != (err1 != nil) || err == nil && rt1.Service != req.Service {
				t.Fatalf("the portal reads %+v, %v; the route is %+v, %v", req, err, rt1, err1)
			}
		}
		if err1 != nil {
			// Every decode failure is the gateway's own 400.
			if !errors.Is(err1, errBadRequest) {
				t.Fatalf("error %v does not wrap errBadRequest", err1)
			}
			return
		}
		if rt1.Kind < KindAny || rt1.Kind > KindRegistry {
			t.Fatalf("invalid kind %d", rt1.Kind)
		}
		// A successful upload decode always carries a portal-legal service.
		if rt1.Kind == KindUpload && rt1.Service == "" {
			t.Fatal("upload route with empty service")
		}
		if method == http.MethodPost && path == "/upload" && rt1.Kind != KindUpload && rt1.Kind != KindAny {
			t.Fatalf("POST /upload decoded as %v", rt1.Kind)
		}
		// A ticket route names the service its ticket does; a ticket that
		// names none routes as KindAny.
		if ticket, ok := ticketOf(path, rawQuery); ok {
			service, named := core.TicketService(ticket)
			if want := (Route{Kind: KindTicket, Service: service}); named && rt1 != want || !named && rt1.Kind != KindAny {
				t.Fatalf("ticket %q (service %q, %v) routes as %+v", ticket, service, named, rt1)
			}
		} else if rt1.Kind == KindTicket {
			t.Fatalf("%s?%s is no ticket path, routed as %+v", path, rawQuery, rt1)
		}
	})
}

// ticketOf is the ticket a ticket path carries, read independently of
// DecodeRoute: the query's ticket, or /api/trace/'s path suffix.
func ticketOf(path, rawQuery string) (string, bool) {
	switch path {
	case "/api/status", "/api/output", "/api/outfile", "/api/wait", "/api/cancel", "/api/trace", "/trace":
		q, _ := url.ParseQuery(rawQuery)
		return q.Get("ticket"), true
	}
	return strings.CutPrefix(path, "/api/trace/")
}
