package myproxy

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/netsim"
	"repro/internal/xsec"
)

// TestMain runs the tests that read or move the repository's time in a
// bubble, under GOEXPERIMENT=synctest.
func TestMain(m *testing.M) { bubble.Main(m) }

type fixture struct {
	ca     *xsec.CA
	user   *xsec.Credential
	trust  *xsec.TrustStore
	client *Client
	server *Server
	t0     time.Time // when the CA and alice's certificate were issued
}

// newFixture serves a repository over in-process pipes, so a test can
// run it in a bubble.
func newFixture(t testing.TB) *fixture {
	t.Helper()
	t0 := time.Now()
	ca, err := xsec.NewCA("MyProxyCA", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("alice", t0, 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	pipes := netsim.NewNet()
	ln := pipes.Listen()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &fixture{
		ca:     ca,
		user:   user,
		trust:  xsec.NewTrustStore(ca.Cert),
		client: &Client{Addr: ln.Addr().String(), Dial: pipes.DialContext},
		server: srv,
		t0:     t0,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	f := newFixture(t)
	if err := f.client.Put("alice", "s3cret", f.user); err != nil {
		t.Fatal(err)
	}
	proxy, err := f.client.Get("alice", "s3cret", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Leaf().Kind != xsec.KindProxy {
		t.Fatal("retrieved credential is not a proxy")
	}
	id, err := f.trust.VerifyChain(proxy.Chain, f.t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=Repro/CN=alice" {
		t.Fatalf("identity %q", id)
	}
}

func TestGetDelegatesFreshProxyEachTime(t *testing.T) {
	f := newFixture(t)
	f.client.Put("alice", "pw", f.user)
	p1, err := f.client.Get("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.client.Get("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Leaf().Serial == p2.Leaf().Serial {
		t.Fatal("server handed out the same proxy twice")
	}
}

func TestGetRespectsRequestedLifetime(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		f.client.Put("alice", "pw", f.user)
		proxy, err := f.client.Get("alice", "pw", 2*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		got := proxy.Leaf().NotAfter.Sub(f.t0)
		if got != 2*time.Hour {
			t.Fatalf("proxy lifetime %v, want 2h", got)
		}
	})
}

// TestBadPassphrase: a refusal is read by its code, never by its text: a
// reply with no code is an error of its message alone.
func TestBadPassphrase(t *testing.T) {
	f := newFixture(t)
	f.client.Put("alice", "right", f.user)
	for _, row := range []struct {
		name string
		c    *Client
		is   bool // the error is ErrBadPassphrase
	}{
		{"the repository", f.client, true},
		{"coded reply", &Client{Dial: answering(response{Code: "unauthorized", Error: "refused"})}, true},
		{"code-less reply", &Client{Dial: answering(response{Error: ErrBadPassphrase.Error()})}, false},
	} {
		_, err := row.c.Get("alice", "wrong", time.Hour)
		if err == nil || errors.Is(err, ErrBadPassphrase) != row.is {
			t.Errorf("%s: got %v, want ErrBadPassphrase: %v", row.name, err, row.is)
		}
	}
}

// answering dials a repository that reads one request and sends resp.
func answering(resp response) func(context.Context, string, string) (net.Conn, error) {
	return func(context.Context, string, string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			var req request
			if readMsg(server, &req) == nil {
				writeMsg(server, resp)
			}
		}()
		return client, nil
	}
}

func TestNoSuchUser(t *testing.T) {
	f := newFixture(t)
	if _, err := f.client.Get("nobody", "pw", time.Hour); !errors.Is(err, ErrNoSuchUser) {
		t.Fatalf("got %v", err)
	}
}

func TestExpiredStoredCredential(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		f.client.Put("alice", "pw", f.user)
		time.Sleep(60 * 24 * time.Hour) // past the 30-day user cert
		if _, err := f.client.Get("alice", "pw", time.Hour); !errors.Is(err, ErrExpired) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestPutOverwrites(t *testing.T) {
	f := newFixture(t)
	f.client.Put("alice", "pw1", f.user)
	other, _ := f.ca.IssueUser("alice2", f.t0, 24*time.Hour)
	if err := f.client.Put("alice", "pw2", other); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.Get("alice", "pw1", time.Hour); !errors.Is(err, ErrBadPassphrase) {
		t.Fatalf("old passphrase still works: %v", err)
	}
	p, err := f.client.Get("alice", "pw2", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Leaf().Subject, "alice2") {
		t.Fatalf("got proxy for %q", p.Leaf().Subject)
	}
}

func TestUnknownOp(t *testing.T) {
	f := newFixture(t)
	conn, err := f.client.Dial(context.Background(), "tcp", f.client.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, request{Op: "bogus"}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := readMsg(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("resp %+v", resp)
	}
}

func TestMalformedFrameRejected(t *testing.T) {
	f := newFixture(t)
	conn, err := f.client.Dial(context.Background(), "tcp", f.client.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Oversized length prefix.
	conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var resp response
	if err := readMsg(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("server accepted oversized frame")
	}
}

func TestPutRejectsGarbageCredential(t *testing.T) {
	f := newFixture(t)
	conn, err := f.client.Dial(context.Background(), "tcp", f.client.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeMsg(conn, request{Op: OpPut, User: "x", Passphrase: "p", Credential: []byte(`"junk"`)})
	var resp response
	if err := readMsg(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("garbage credential accepted")
	}
}

func TestDialFailure(t *testing.T) {
	c := &Client{Addr: "127.0.0.1:1"}
	if _, err := c.Get("a", "b", time.Hour); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestConcurrentClients(t *testing.T) {
	f := newFixture(t)
	f.client.Put("alice", "pw", f.user)
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := f.client.Get("alice", "pw", time.Hour)
			errs <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
