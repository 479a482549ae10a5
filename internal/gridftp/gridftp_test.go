package gridftp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gridsim"
	"repro/internal/vtime"
	"repro/internal/xsec"
)

type fixture struct {
	store *gridsim.Store
	srv   *Server
	alice *Client
	bob   *Client
	url   string
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	now := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	ca, err := xsec.NewCA("FTPCA", now, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := ca.IssueUser("alice", now, 365*24*time.Hour)
	bob, _ := ca.IssueUser("bob", now, 365*24*time.Hour)
	store := gridsim.NewStore()
	srv := NewServer(store, xsec.NewTrustStore(ca.Cert), vtime.NewManual(now.Add(time.Hour)), nil)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return &fixture{
		store: store,
		srv:   srv,
		alice: &Client{BaseURL: hs.URL, Cred: alice},
		bob:   &Client{BaseURL: hs.URL, Cred: bob},
		url:   hs.URL,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("executable bytes "), 500)
	checksum, err := f.alice.Put("exe.gsh", data)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if checksum != hex.EncodeToString(sum[:]) {
		t.Fatalf("checksum %s", checksum)
	}
	got, err := f.alice.Get("exe.gsh")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted")
	}
}

func TestFilesAreOwnerScoped(t *testing.T) {
	f := newFixture(t)
	if _, err := f.alice.Put("secret.gsh", []byte("alice data")); err != nil {
		t.Fatal(err)
	}
	// Bob authenticates fine but sees his own (empty) namespace.
	if _, err := f.bob.Get("secret.gsh"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("got %v", err)
	}
	if names := f.store.List(xsec.Identity(f.bob.Cred.Chain)); len(names) != 0 {
		t.Fatalf("bob owns %v", names)
	}
	if names := f.store.List(xsec.Identity(f.alice.Cred.Chain)); len(names) != 1 || names[0] != "secret.gsh" {
		t.Fatalf("alice owns %v", names)
	}
}

func TestDelete(t *testing.T) {
	f := newFixture(t)
	f.alice.Put("f.gsh", []byte("x"))
	if err := f.alice.Delete("f.gsh"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.alice.Get("f.gsh"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("got %v", err)
	}
	if err := f.alice.Delete("f.gsh"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("got %v", err)
	}
}

func TestChecksumMismatchRejected(t *testing.T) {
	f := newFixture(t)
	data := []byte("payload")
	sum := sha256.Sum256(data)
	checksum := hex.EncodeToString(sum[:])
	tok, err := f.alice.sign(http.MethodPut, "f.gsh", checksum)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, f.url+"/ftp/f.gsh", bytes.NewReader([]byte("tampered")))
	req.Header.Set(TokenHeader, tok)
	req.Header.Set(ChecksumHeader, checksum)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestTokenBoundToFileName(t *testing.T) {
	f := newFixture(t)
	data := []byte("payload")
	sum := sha256.Sum256(data)
	checksum := hex.EncodeToString(sum[:])
	// Token signed for a different file must not authorize this PUT.
	tok, err := f.alice.sign(http.MethodPut, "other.gsh", checksum)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, f.url+"/ftp/f.gsh", bytes.NewReader(data))
	req.Header.Set(TokenHeader, tok)
	req.Header.Set(ChecksumHeader, checksum)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestUnauthenticatedRejected(t *testing.T) {
	f := newFixture(t)
	req, _ := http.NewRequest(http.MethodGet, f.url+"/ftp/x", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestBadFileNames(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.url + "/ftp/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty name: status %d", resp.StatusCode)
	}
	resp, err = http.Get(f.url + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	f := newFixture(t)
	req, _ := http.NewRequest(http.MethodPost, f.url+"/ftp/x", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestProxyCredentialWorks(t *testing.T) {
	f := newFixture(t)
	proxy, err := f.alice.Cred.Delegate(time.Date(2010, 6, 1, 0, 30, 0, 0, time.UTC), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxied := &Client{BaseURL: f.url, Cred: proxy}
	if _, err := proxied.Put("via-proxy.gsh", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The proxy acts as alice, so alice sees the file.
	got, err := f.alice.Get("via-proxy.gsh")
	if err != nil || string(got) != "x" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestQuotaSurfacesAsError(t *testing.T) {
	now := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	ca, err := xsec.NewCA("FTPCA", now, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := ca.IssueUser("alice", now, 365*24*time.Hour)
	store := gridsim.NewStoreWithLimits(1000, 800)
	srv := NewServer(store, xsec.NewTrustStore(ca.Cert), vtime.NewManual(now.Add(time.Hour)), nil)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{BaseURL: hs.URL, Cred: alice}
	if _, err := c.Put("a", make([]byte, 700)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("b", make([]byte, 700)); err == nil {
		t.Fatal("quota not enforced")
	}
}

func TestFileNameEscaping(t *testing.T) {
	f := newFixture(t)
	name := "weird name &?.gsh"
	if _, err := f.alice.Put(name, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := f.alice.Get(name)
	if err != nil || string(got) != "v" {
		t.Fatalf("got %q err %v", got, err)
	}
}

// Property: arbitrary payloads survive the staged round trip bit-exact.
func TestPropertyTransferIntegrity(t *testing.T) {
	f := newFixture(t)
	i := 0
	fn := func(data []byte) bool {
		i++
		name := "blob-" + hex.EncodeToString([]byte{byte(i)}) + ".bin"
		if _, err := f.alice.Put(name, data); err != nil {
			return false
		}
		got, err := f.alice.Get(name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
