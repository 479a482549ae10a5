package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bubble"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/wsdl"
)

// TestMain runs the tests that sleep on virtual time in a bubble, under
// GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := &Message{
		Namespace: "urn:test",
		Operation: "execute",
		Params: []Param{
			{Name: "a", Value: "1"},
			{Name: "b", Value: "two & <three>"},
			{Name: "a", Value: "repeated"},
		},
		Headers: map[string]string{"Token": "abc=="},
	}
	env, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Namespace != "urn:test" || got.Operation != "execute" {
		t.Fatalf("identity: %+v", got)
	}
	if len(got.Params) != 3 || got.Params[1].Value != "two & <three>" {
		t.Fatalf("params: %+v", got.Params)
	}
	if got.Headers["Token"] != "abc==" {
		t.Fatalf("headers: %+v", got.Headers)
	}
	if v, ok := got.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if got.ParamMap()["a"] != "repeated" {
		t.Fatal("ParamMap should keep last value")
	}
}

// encodeFault is the fault envelope the server writes.
func encodeFault(f *Fault) []byte {
	var buf bytes.Buffer
	writeFault(&buf, f)
	return buf.Bytes()
}

func TestDecodeFault(t *testing.T) {
	f := &Fault{Code: FaultServer, String: "boom", Detail: "stack"}
	env := encodeFault(f)
	_, err := Decode(env)
	var got *Fault
	if !errors.As(err, &got) {
		t.Fatalf("err %v", err)
	}
	if got.Code != FaultServer || got.String != "boom" || got.Detail != "stack" {
		t.Fatalf("fault %+v", got)
	}
	if !strings.Contains(got.Error(), "boom") {
		t.Fatalf("fault error text %q", got.Error())
	}
}

func TestDecodeRejectsNonSOAP(t *testing.T) {
	if _, err := Decode([]byte("<html></html>")); !errors.Is(err, ErrNotSOAP) {
		t.Fatalf("got %v", err)
	}
	empty := `<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `"><soapenv:Body></soapenv:Body></soapenv:Envelope>`
	if _, err := Decode([]byte(empty)); !errors.Is(err, ErrNoOperation) {
		t.Fatalf("got %v", err)
	}
}

// TestDecodeRejectsBrokenEnvelopes: every proper prefix of an envelope —
// request, response or fault — is an error, never a message with the
// parameters (or the part of <return>) read so far; so is an envelope
// with anything but white space after it.
func TestDecodeRejectsBrokenEnvelopes(t *testing.T) {
	request, err := Encode(&Message{
		Namespace: "urn:x", Operation: "execute",
		Params:  []Param{{Name: "digits", Value: "1000"}, {Name: "seed", Value: "a<b"}},
		Headers: map[string]string{"Token": "t"},
	})
	if err != nil {
		t.Fatal(err)
	}
	response, err := Encode(&Message{
		Namespace: "urn:x", Operation: "waitResponse",
		Params: []Param{{Name: "return", Value: "line one\nline two\n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, whole := range [][]byte{request, response, encodeFault(&Fault{Code: FaultServer, String: "boom"})} {
		for cut := 0; cut < len(whole); cut++ {
			msg, err := Decode(whole[:cut])
			var fault *Fault
			if err == nil || errors.As(err, &fault) {
				t.Fatalf("envelope cut at byte %d of %d decoded as %+v (%v):\n%s", cut, len(whole), msg, err, whole[:cut])
			}
			if !errors.Is(err, ErrNotSOAP) {
				t.Fatalf("cut at byte %d: %v is not ErrNotSOAP", cut, err)
			}
		}
	}
	msg, err := Decode(request)
	if err != nil || msg.Operation != "execute" || len(msg.Params) != 2 || msg.Params[1].Value != "a<b" {
		t.Fatalf("whole envelope: %+v, %v", msg, err)
	}
	if _, err := Decode(append(append([]byte(nil), request...), " \r\n"...)); err != nil {
		t.Fatalf("trailing white space: %v", err)
	}
	for _, tail := range []string{"x", "<", "<again/>", "</soapenv:Envelope>", string(request[len(xml.Header):])} {
		if msg, err := Decode(append(append([]byte(nil), request...), tail...)); !errors.Is(err, ErrNotSOAP) {
			t.Fatalf("tail %q: %+v, %v", tail, msg, err)
		}
	}
}

func calcService(t *testing.T) *Service {
	t.Helper()
	svc := NewService(wsdl.ServiceDef{
		Name:      "Calc",
		Namespace: "urn:calc",
		Operations: []wsdl.OperationDef{
			{Name: "add", Params: []wsdl.ParamDef{
				{Name: "x", Type: wsdl.TypeInt}, {Name: "y", Type: wsdl.TypeInt},
			}},
			{Name: "echoHeader"},
			{Name: "explode"},
			{Name: "unbound"},
		},
	})
	svc.MustBind("add", func(req *Request) (string, error) {
		x, _ := strconv.Atoi(req.Args["x"])
		y, _ := strconv.Atoi(req.Args["y"])
		return strconv.Itoa(x + y), nil
	})
	svc.MustBind("echoHeader", func(req *Request) (string, error) {
		return req.Msg.Headers["Token"], nil
	})
	svc.MustBind("explode", func(req *Request) (string, error) {
		return "", &Fault{Code: FaultServer, String: "deliberate"}
	})
	return svc
}

func newContainer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(nil)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

func TestServerInvoke(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	got, err := c.Call(hs.URL+"/services/Calc", "urn:calc", "add",
		[]Param{{Name: "x", Value: "19"}, {Name: "y", Value: "23"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "42" {
		t.Fatalf("add = %q", got)
	}
}

func TestServerHeadersReachHandler(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	got, err := c.Call(hs.URL+"/services/Calc", "urn:calc", "echoHeader", nil,
		map[string]string{"Token": "tok123"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "tok123" {
		t.Fatalf("header echo %q", got)
	}
}

func TestServerFaults(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	cases := []struct {
		op     string
		params []Param
		want   string
	}{
		{"explode", nil, "deliberate"},
		{"add", []Param{{Name: "x", Value: "1"}}, "missing parameter"},
		{"add", []Param{{Name: "x", Value: "1"}, {Name: "y", Value: "nan"}}, "not an int"},
		{"nosuch", nil, "no operation"},
		{"unbound", nil, "without handler"},
	}
	for _, tc := range cases {
		_, err := c.Call(hs.URL+"/services/Calc", "urn:calc", tc.op, tc.params, nil)
		var f *Fault
		if !errors.As(err, &f) {
			t.Errorf("%s: err %v, want fault", tc.op, err)
			continue
		}
		if !strings.Contains(f.String, tc.want) {
			t.Errorf("%s: fault %q, want substring %q", tc.op, f.String, tc.want)
		}
	}
}

func TestServerNoSuchService(t *testing.T) {
	_, hs := newContainer(t)
	var c Client
	_, err := c.Call(hs.URL+"/services/Ghost", "urn:g", "x", nil, nil)
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "no such service") {
		t.Fatalf("err %v", err)
	}
}

// TestServiceName pins the one reading of "/services/<name>…" that the
// container, the gateway's router and the tenancy guard share.
func TestServiceName(t *testing.T) {
	for _, tc := range []struct {
		path, name, rest string
		ok               bool
	}{
		{"/services/Calc", "Calc", "", true},
		{"/services/Calc/", "Calc", "", true},
		{"/services/Calc//", "Calc", "/", true},
		{"/services/Calc/extra", "Calc", "extra", true},
		{"/services/", "", "", true},
		{"/services//Calc", "", "Calc", true},
		{"/services", "", "", false},
		{"/api/services/Calc", "", "", false},
	} {
		name, rest, ok := ServiceName(tc.path)
		if name != tc.name || rest != tc.rest || ok != tc.ok {
			t.Errorf("ServiceName(%q) = %q, %q, %v; want %q, %q, %v", tc.path, name, rest, ok, tc.name, tc.rest, tc.ok)
		}
	}
}

func TestServerWSDLEndpoint(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	doc, err := c.FetchWSDL(hs.URL + "/services/Calc")
	if err != nil {
		t.Fatal(err)
	}
	def, err := wsdl.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "Calc" || def.Operation("add") == nil {
		t.Fatalf("wsdl def %+v", def)
	}
}

func TestServerIndexAndInfoPages(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	resp, err := http.Get(hs.URL + "/services/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "Calc") {
		t.Fatalf("index %q", buf[:n])
	}
	resp2, err := http.Get(hs.URL + "/services/Calc")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("info page status %d", resp2.StatusCode)
	}
}

func TestDeployUndeployLifecycle(t *testing.T) {
	srv, hs := newContainer(t)
	svc := calcService(t)
	if err := srv.Deploy(svc); err != nil {
		t.Fatal(err)
	}
	if names := srv.Names(); len(names) != 1 || names[0] != "Calc" {
		t.Fatalf("names %v", names)
	}
	if !srv.Undeploy("Calc") {
		t.Fatal("undeploy reported missing")
	}
	if srv.Undeploy("Calc") {
		t.Fatal("second undeploy reported success")
	}
	var c Client
	if _, err := c.Call(hs.URL+"/services/Calc", "urn:calc", "add", nil, nil); err == nil {
		t.Fatal("undeployed service still answers")
	}
}

func TestDeployRejectsInvalidDef(t *testing.T) {
	srv, _ := newContainer(t)
	err := srv.Deploy(NewService(wsdl.ServiceDef{Name: "", Namespace: ""}))
	if err == nil {
		t.Fatal("invalid service deployed")
	}
}

func TestBindUnknownOperation(t *testing.T) {
	svc := NewService(wsdl.ServiceDef{Name: "S", Namespace: "urn:s"})
	if err := svc.Bind("ghost", nil); err == nil {
		t.Fatal("bound to missing operation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBind should panic")
		}
	}()
	svc.MustBind("ghost", nil)
}

func TestMethodNotAllowed(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/services/Calc", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestServerAccountsRequestHandlingCost(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		rec := metrics.NewRecorder(3 * time.Second)
		srv := NewServer(metrics.NewProbe(rec, metrics.Cost{RequestHandling: 500 * time.Millisecond}))
		// Over an in-process pipe: the cost sleeps on the bubble's clock,
		// which waits for no socket.
		pipes := netsim.NewNet()
		ln := pipes.Listen()
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		srv.Deploy(calcService(t))
		c := Client{HTTP: &http.Client{Transport: &http.Transport{DialContext: pipes.DialContext}}}
		defer c.HTTP.CloseIdleConnections()
		if _, err := c.Call("http://"+ln.Addr().String()+"/services/Calc", "urn:calc", "add",
			[]Param{{Name: "x", Value: "1"}, {Name: "y", Value: "2"}}, nil); err != nil {
			t.Fatal(err)
		}
		if got := time.Duration(rec.Total(metrics.CPU)); got != 500*time.Millisecond {
			t.Fatalf("request handling cost accounted as %v, want 500ms", got)
		}
	})
}

// Property: Encode/Decode round-trips arbitrary parameter values,
// including XML metacharacters and control-adjacent text.
func TestPropertyEnvelopeRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		msg := &Message{Namespace: "urn:p", Operation: "op"}
		for i, v := range vals {
			// XML cannot carry arbitrary control bytes or the non-characters
			// U+FFFE/U+FFFF; strip them as any transport binding would.
			clean := strings.Map(func(r rune) rune {
				if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
					return -1
				}
				return r
			}, v)
			msg.Params = append(msg.Params, Param{Name: fmt.Sprintf("p%d", i), Value: clean})
		}
		env, err := Encode(msg)
		if err != nil {
			return false
		}
		got, err := Decode(env)
		if err != nil {
			return false
		}
		if len(got.Params) != len(msg.Params) {
			return false
		}
		for i := range msg.Params {
			// xml.EscapeText writes \r and \n as character references, so
			// values round-trip exactly.
			if got.Params[i].Value != msg.Params[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
