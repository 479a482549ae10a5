package gridftp

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/xsec"
)

// twoSites builds two GridFTP servers sharing one CA, with clients for
// alice against each.
func twoSites(t *testing.T) (srcClient, dstClient *Client, srcStore, dstStore *gridsim.Store) {
	t.Helper()
	now := time.Now()
	ca, err := xsec.NewCA("FTPCA", now, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := ca.IssueUser("alice", now, 365*24*time.Hour)
	trust := xsec.NewTrustStore(ca.Cert)

	srcStore = gridsim.NewStore()
	dstStore = gridsim.NewStore()
	srcSrv := httptest.NewServer(NewServer(srcStore, trust, nil))
	dstSrv := httptest.NewServer(NewServer(dstStore, trust, nil))
	t.Cleanup(srcSrv.Close)
	t.Cleanup(dstSrv.Close)
	return &Client{BaseURL: srcSrv.URL, Cred: alice},
		&Client{BaseURL: dstSrv.URL, Cred: alice},
		srcStore, dstStore
}

func TestThirdPartyTransfer(t *testing.T) {
	src, dst, _, dstStore := twoSites(t)
	payload := bytes.Repeat([]byte("replicate me "), 1000)
	want, err := src.Put("data.gsh", payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.FetchFrom(src.BaseURL, "data.gsh")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checksum %s, want %s", got, want)
	}
	// The destination store holds the bytes under alice's identity.
	stored, err := dstStore.Get(dst.Cred.Subject(), "data.gsh")
	if err != nil || !bytes.Equal(stored, payload) {
		t.Fatalf("destination copy wrong: %v", err)
	}
	// And the destination client can read it back through the protocol.
	back, err := dst.Get("data.gsh")
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("read-back wrong: %v", err)
	}
}

func TestThirdPartyTransferMissingSource(t *testing.T) {
	src, dst, _, _ := twoSites(t)
	if _, err := dst.FetchFrom(src.BaseURL, "ghost.gsh"); err == nil {
		t.Fatal("fetch of missing file succeeded")
	}
}

func TestThirdPartyTransferRequiresAuth(t *testing.T) {
	src, dst, _, _ := twoSites(t)
	src.Put("f.gsh", []byte("x"))
	// Forge a fetch with a token signed for a different source URL: the
	// destination must reject it.
	srcToken, _ := dst.sign(http.MethodGet, "f.gsh", "")
	fetchToken, _ := dst.sign("FETCH", "f.gsh", "http://evil.example")
	body := []byte(`{"source_url":"` + src.BaseURL + `","name":"f.gsh","source_token":"` + srcToken + `"}`)
	req, _ := http.NewRequest(http.MethodPost, dst.BaseURL+"/ftp-fetch", bytes.NewReader(body))
	req.Header.Set(TokenHeader, fetchToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status %d, want 403", resp.StatusCode)
	}
}

func TestThirdPartyTransferCapabilityIsScoped(t *testing.T) {
	// A capability signed for one file must not fetch another.
	src, dst, _, _ := twoSites(t)
	src.Put("public.gsh", []byte("ok"))
	src.Put("secret.gsh", []byte("no"))
	wrongCap, _ := dst.sign(http.MethodGet, "public.gsh", "")
	fetchToken, _ := dst.sign("FETCH", "secret.gsh", src.BaseURL)
	body := []byte(`{"source_url":"` + src.BaseURL + `","name":"secret.gsh","source_token":"` + wrongCap + `"}`)
	req, _ := http.NewRequest(http.MethodPost, dst.BaseURL+"/ftp-fetch", bytes.NewReader(body))
	req.Header.Set(TokenHeader, fetchToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The source rejects the mis-scoped capability, surfacing as a bad
	// gateway at the destination.
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if _, err := dst.Get("secret.gsh"); !errors.Is(err, ErrNoFile) {
		t.Fatal("secret file leaked to destination")
	}
}

// countingTransport counts round-trips before delegating to hop's shared
// transport.
type countingTransport struct{ calls int }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.calls++
	return hop.Shared().RoundTrip(r)
}

func TestFetchUsesInjectedHTTPClient(t *testing.T) {
	// The destination server's source-side pull must go through the
	// injected transport (the rig routes it through the shaped WAN), not
	// hop's shared one.
	now := time.Now()
	ca, err := xsec.NewCA("FTPCA", now, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := ca.IssueUser("alice", now, 365*24*time.Hour)
	trust := xsec.NewTrustStore(ca.Cert)
	ct := &countingTransport{}
	srcStore, dstStore := gridsim.NewStore(), gridsim.NewStore()
	srcSrv := httptest.NewServer(NewServer(srcStore, trust, nil))
	dstSrv := httptest.NewServer(NewServer(dstStore, trust, ct))
	t.Cleanup(srcSrv.Close)
	t.Cleanup(dstSrv.Close)
	src := &Client{BaseURL: srcSrv.URL, Cred: alice}
	dst := &Client{BaseURL: dstSrv.URL, Cred: alice}
	if _, err := src.Put("data.gsh", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.FetchFrom(src.BaseURL, "data.gsh"); err != nil {
		t.Fatal(err)
	}
	if ct.calls != 1 {
		t.Fatalf("injected transport saw %d calls, want 1", ct.calls)
	}
}

func TestFetchRejectsBadFields(t *testing.T) {
	_, dst, _, _ := twoSites(t)
	fetchToken, _ := dst.sign("FETCH", "f", "u")
	for _, body := range []string{
		"{",
		`{"source_url":"","name":"f","source_token":"x"}`,
		`{"source_url":"http://h","name":"a/b","source_token":"x"}`,
	} {
		req, _ := http.NewRequest(http.MethodPost, dst.BaseURL+"/ftp-fetch", bytes.NewReader([]byte(body)))
		req.Header.Set(TokenHeader, fetchToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", body, resp.StatusCode)
		}
	}
}
