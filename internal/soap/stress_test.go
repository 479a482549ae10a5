package soap

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/wsdl"
)

// TestConcurrentDeployUndeployInvoke exercises the container's runtime
// (un)deployment under concurrent invocations — the paper's appliance
// deploys generated services while others are being called.
func TestConcurrentDeployUndeployInvoke(t *testing.T) {
	srv := NewServer(nil)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	mkSvc := func(name string) *Service {
		svc := NewService(wsdl.ServiceDef{
			Name: name, Namespace: "urn:" + name,
			Operations: []wsdl.OperationDef{{Name: "ping"}},
		})
		svc.MustBind("ping", func(req *Request) (string, error) { return "pong", nil })
		return svc
	}

	// A stable service invoked throughout.
	srv.Deploy(mkSvc("Stable"))

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Churner: deploy/undeploy transient services.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("Transient%d", c)
			for i := 0; i < 25; i++ {
				if err := srv.Deploy(mkSvc(name)); err != nil {
					errs <- err
					return
				}
				srv.Undeploy(name)
			}
		}(c)
	}
	// Callers: hammer the stable service.
	var client Client
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				out, err := client.Call(hs.URL+"/services/Stable", "urn:Stable", "ping", nil, nil)
				if err != nil || out != "pong" {
					errs <- fmt.Errorf("call: %q %v", out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, ok := srv.Lookup("Stable"); !ok {
		t.Fatal("stable service lost")
	}
}

// TestRedeployReplacesHandler confirms redeploying a name atomically
// swaps the implementation.
func TestRedeployReplacesHandler(t *testing.T) {
	srv, hs := newContainer(t)
	mk := func(answer string) *Service {
		svc := NewService(wsdl.ServiceDef{
			Name: "Swap", Namespace: "urn:swap",
			Operations: []wsdl.OperationDef{{Name: "get"}},
		})
		svc.MustBind("get", func(req *Request) (string, error) { return answer, nil })
		return svc
	}
	srv.Deploy(mk("v1"))
	var c Client
	if out, _ := c.Call(hs.URL+"/services/Swap", "urn:swap", "get", nil, nil); out != "v1" {
		t.Fatalf("got %q", out)
	}
	srv.Deploy(mk("v2"))
	if out, _ := c.Call(hs.URL+"/services/Swap", "urn:swap", "get", nil, nil); out != "v2" {
		t.Fatalf("got %q", out)
	}
}
