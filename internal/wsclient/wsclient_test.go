package wsclient

import (
	"errors"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/wsdl"
)

func deployCalc(t *testing.T) (*soap.Server, *httptest.Server) {
	t.Helper()
	srv := soap.NewServer(nil)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	svc := soap.NewService(wsdl.ServiceDef{
		Name:        "Calc",
		Namespace:   "urn:calc",
		EndpointURL: hs.URL + "/services/Calc",
		Operations: []wsdl.OperationDef{
			{Name: "mul", Params: []wsdl.ParamDef{
				{Name: "x", Type: wsdl.TypeInt}, {Name: "y", Type: wsdl.TypeInt},
			}},
			{Name: "whoami"},
		},
	})
	svc.MustBind("mul", func(req *soap.Request) (string, error) {
		x, _ := strconv.Atoi(req.Args["x"])
		y, _ := strconv.Atoi(req.Args["y"])
		return strconv.Itoa(x * y), nil
	})
	svc.MustBind("whoami", func(req *soap.Request) (string, error) {
		return req.Msg.Headers["User"], nil
	})
	srv.Deploy(svc)
	return srv, hs
}

func TestImportURLAndInvoke(t *testing.T) {
	_, hs := deployCalc(t)
	p, err := ImportURL(hs.URL+"/services/Calc", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Invoke("mul", map[string]string{"x": "6", "y": "7"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "42" {
		t.Fatalf("mul = %q", got)
	}
}

func TestImportFromDocument(t *testing.T) {
	_, hs := deployCalc(t)
	var c soap.Client
	doc, err := c.FetchWSDL(hs.URL + "/services/Calc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Import(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Def.Name != "Calc" {
		t.Fatalf("imported %q", p.Def.Name)
	}
	got, err := p.Invoke("mul", map[string]string{"x": "3", "y": "5"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "15" {
		t.Fatalf("mul = %q", got)
	}
}

func TestInvokeValidation(t *testing.T) {
	_, hs := deployCalc(t)
	p, err := ImportURL(hs.URL+"/services/Calc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("nosuch", nil); !errors.Is(err, ErrNoOperation) {
		t.Fatalf("got %v", err)
	}
	if _, err := p.Invoke("mul", map[string]string{"x": "1"}); !errors.Is(err, ErrMissingArg) {
		t.Fatalf("got %v", err)
	}
	if _, err := p.Invoke("mul", map[string]string{"x": "1", "y": "2", "z": "3"}); !errors.Is(err, ErrUnknownArg) {
		t.Fatalf("got %v", err)
	}
	if _, err := p.Invoke("mul", map[string]string{"x": "1", "y": "pear"}); err == nil ||
		!strings.Contains(err.Error(), "not an int") {
		t.Fatalf("got %v", err)
	}
}

func TestHeadersTravel(t *testing.T) {
	_, hs := deployCalc(t)
	p, err := ImportURL(hs.URL+"/services/Calc", nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Headers = map[string]string{"User": "alice"}
	got, err := p.Invoke("whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "alice" {
		t.Fatalf("whoami = %q", got)
	}
}

func TestOperationsSorted(t *testing.T) {
	_, hs := deployCalc(t)
	p, err := ImportURL(hs.URL+"/services/Calc", nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Operations()
	if len(ops) != 2 || ops[0].Name != "mul" || ops[1].Name != "whoami" {
		t.Fatalf("ops %+v", ops)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := Import([]byte("<html/>"), nil); err == nil {
		t.Fatal("garbage imported")
	}
}

func TestImportRejectsNoEndpoint(t *testing.T) {
	doc, err := wsdl.Generate(&wsdl.ServiceDef{
		Name: "X", Namespace: "urn:x",
		Operations: []wsdl.OperationDef{{Name: "op"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Import(doc, nil); err == nil {
		t.Fatal("endpoint-less WSDL imported")
	}
}

func TestImportURLUnreachable(t *testing.T) {
	if _, err := ImportURL("http://127.0.0.1:1/services/X", nil); err == nil {
		t.Fatal("expected connection error")
	}
}
