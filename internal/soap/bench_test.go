package soap

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/wsdl"
)

func benchMessage(params int) *Message {
	m := &Message{Namespace: "urn:bench", Operation: "execute"}
	for i := 0; i < params; i++ {
		m.Params = append(m.Params, Param{
			Name:  fmt.Sprintf("param%d", i),
			Value: "some moderately sized value with <xml> & metacharacters",
		})
	}
	return m
}

func BenchmarkEncode(b *testing.B) {
	m := benchMessage(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	env, err := Encode(benchMessage(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(env)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerRoundTrip(b *testing.B) {
	srv := NewServer(nil)
	svc := NewService(wsdl.ServiceDef{
		Name: "Bench", Namespace: "urn:bench",
		Operations: []wsdl.OperationDef{{Name: "echo", Params: []wsdl.ParamDef{
			{Name: "v", Type: wsdl.TypeString},
		}}},
	})
	svc.MustBind("echo", func(req *Request) (string, error) { return req.Args["v"], nil })
	srv.Deploy(svc)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	var c Client
	url := hs.URL + "/services/Bench"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.Call(url, "urn:bench", "echo", []Param{{Name: "v", Value: "x"}}, nil)
		if err != nil || out != "x" {
			b.Fatalf("out %q err %v", out, err)
		}
	}
}

func BenchmarkFaultEncode(b *testing.B) {
	f := &Fault{Code: FaultServer, String: "boom", Detail: "details"}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeFault(&buf, f)
	}
}
