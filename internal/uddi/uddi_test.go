package uddi

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/soap"
)

func rec(name string) Record {
	return Record{
		Name:        name,
		Description: "test service " + name,
		WSDLURL:     "http://appliance/services/" + name + "?wsdl",
		Endpoint:    "http://appliance/services/" + name,
		Owner:       "alice",
	}
}

func TestPublishGetDelete(t *testing.T) {
	g := NewRegistry(nil)
	before := time.Now()
	key, err := g.Publish(rec("MonteCarlo"))
	after := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(key, "uddi:") {
		t.Fatalf("key %q", key)
	}
	got, err := g.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "MonteCarlo" || got.PublishedAt.Before(before) || got.PublishedAt.After(after) {
		t.Fatalf("record %+v", got)
	}
	if err := g.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if err := g.Delete(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestPublishValidation(t *testing.T) {
	g := NewRegistry(nil)
	if _, err := g.Publish(Record{Name: "", Endpoint: "e"}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("got %v", err)
	}
	if _, err := g.Publish(Record{Name: "n", Endpoint: ""}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("got %v", err)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	g := NewRegistry(nil)
	if _, err := g.Publish(rec("S")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Publish(rec("S")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("got %v", err)
	}
	if g.Len() != 1 {
		t.Fatalf("len %d", g.Len())
	}
}

func TestDeleteFreesName(t *testing.T) {
	g := NewRegistry(nil)
	key, _ := g.Publish(rec("S"))
	g.Delete(key)
	if _, err := g.Publish(rec("S")); err != nil {
		t.Fatalf("republish after delete: %v", err)
	}
}

func TestGetByName(t *testing.T) {
	g := NewRegistry(nil)
	g.Publish(rec("Alpha"))
	got, err := g.GetByName("Alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Alpha" {
		t.Fatalf("record %+v", got)
	}
	if _, err := g.GetByName("Beta"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestFindWithWildcards(t *testing.T) {
	g := NewRegistry(nil)
	for _, n := range []string{"MonteCarloService", "MatrixService", "WordCount"} {
		if _, err := g.Publish(rec(n)); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string][]string{
		"":                  {"MatrixService", "MonteCarloService", "WordCount"},
		"%":                 {"MatrixService", "MonteCarloService", "WordCount"},
		"M%Service":         {"MatrixService", "MonteCarloService"},
		"montecarloservice": {"MonteCarloService"}, // case-insensitive exact
		"%Count":            {"WordCount"},
		"Word%":             {"WordCount"},
		"%zzz%":             {},
		"Monte%Carlo%":      {"MonteCarloService"},
	}
	for pattern, want := range cases {
		got := g.Find(pattern)
		names := make([]string, len(got))
		for i, r := range got {
			names[i] = r.Name
		}
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("Find(%q) = %v, want %v", pattern, names, want)
		}
	}
}

func TestMatchPatternProperties(t *testing.T) {
	// Full wildcard always matches; exact name always matches itself;
	// a pattern with a character absent from the name never matches.
	f := func(name string) bool {
		name = strings.Map(func(r rune) rune {
			if r == '%' {
				return 'x'
			}
			return r
		}, name)
		if !MatchPattern("%", name) {
			return false
		}
		if !MatchPattern(name, name) {
			return false
		}
		return MatchPattern("%"+name+"%", name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func soapFixture(t *testing.T) (*Registry, *soap.Client, string) {
	t.Helper()
	g := NewRegistry(nil)
	srv := soap.NewServer(nil)
	if err := srv.Deploy(g.SOAPService()); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return g, &soap.Client{}, hs.URL + "/services/" + ServiceName
}

func TestSOAPPublishAndFind(t *testing.T) {
	g, c, url := soapFixture(t)
	key, err := c.Call(url, Namespace, "publish", []soap.Param{
		{Name: "name", Value: "GridSvc"},
		{Name: "description", Value: "a grid service"},
		{Name: "wsdlURL", Value: "http://x?wsdl"},
		{Name: "endpoint", Value: "http://x"},
		{Name: "owner", Value: "alice"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatal("publish did not reach registry")
	}
	out, err := c.Call(url, Namespace, "find", []soap.Param{{Name: "pattern", Value: "Grid%"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != key || recs[0].Owner != "alice" {
		t.Fatalf("records %+v", recs)
	}
}

func TestSOAPGetAndDelete(t *testing.T) {
	g, c, url := soapFixture(t)
	key, _ := g.Publish(rec("S"))
	out, err := c.Call(url, Namespace, "get", []soap.Param{{Name: "key", Value: key}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var r Record
	if err := json.Unmarshal([]byte(out), &r); err != nil || r.Name != "S" {
		t.Fatalf("record %+v err %v", r, err)
	}
	if _, err := c.Call(url, Namespace, "delete", []soap.Param{{Name: "key", Value: key}}, nil); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Fatal("delete did not reach registry")
	}
}

func TestSOAPFaults(t *testing.T) {
	_, c, url := soapFixture(t)
	_, err := c.Call(url, Namespace, "get", []soap.Param{{Name: "key", Value: "uddi:nope"}}, nil)
	var f *soap.Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "no such service") {
		t.Fatalf("err %v", err)
	}
	_, err = c.Call(url, Namespace, "publish", []soap.Param{
		{Name: "name", Value: ""}, {Name: "description", Value: ""},
		{Name: "wsdlURL", Value: ""}, {Name: "endpoint", Value: ""}, {Name: "owner", Value: ""},
	}, nil)
	if !errors.As(err, &f) {
		t.Fatalf("err %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeRecords("{"); err == nil {
		t.Fatal("garbage records decoded")
	}
}

func TestConcurrentPublish(t *testing.T) {
	g := NewRegistry(nil)
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		name := "svc-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		go func() {
			_, err := g.Publish(rec(name))
			done <- err
		}()
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() != 32 {
		t.Fatalf("len %d", g.Len())
	}
}
