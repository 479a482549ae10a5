package xsec

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)

func newCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("TestCA", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func newUser(t *testing.T, ca *CA, cn string) *Credential {
	t.Helper()
	cred, err := ca.IssueUser(cn, t0, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return cred
}

func TestUserChainVerifies(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	id, err := ts.VerifyChain(alice.Chain, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=Repro/CN=alice" {
		t.Fatalf("identity %q", id)
	}
}

func TestProxyChainVerifies(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, err := alice.Delegate(t0, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	id, err := ts.VerifyChain(proxy.Chain, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=Repro/CN=alice" {
		t.Fatalf("proxy should speak for alice, got %q", id)
	}
	if proxy.Leaf().Kind != KindProxy {
		t.Fatal("leaf not a proxy")
	}
}

func TestNestedDelegation(t *testing.T) {
	ca := newCA(t)
	cred := newUser(t, ca, "bob")
	ts := NewTrustStore(ca.Cert)
	for i := 0; i < 3; i++ {
		next, err := cred.Delegate(t0, time.Hour)
		if err != nil {
			t.Fatalf("delegation %d: %v", i, err)
		}
		cred = next
	}
	if len(cred.Chain) != 4 {
		t.Fatalf("chain length %d, want 4", len(cred.Chain))
	}
	if id, err := ts.VerifyChain(cred.Chain, t0.Add(time.Minute)); err != nil || id != "/O=Repro/CN=bob" {
		t.Fatalf("nested chain: id=%q err=%v", id, err)
	}
}

func TestDelegationDepthLimit(t *testing.T) {
	ca := newCA(t)
	cred := newUser(t, ca, "deep")
	var err error
	for i := 0; i < MaxProxyDepth; i++ {
		cred, err = cred.Delegate(t0, time.Hour)
		if err != nil {
			t.Fatalf("delegation %d failed early: %v", i, err)
		}
	}
	if _, err = cred.Delegate(t0, time.Hour); !errors.Is(err, ErrProxyTooDeep) {
		t.Fatalf("expected depth error, got %v", err)
	}
}

func TestExpiredCertRejected(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	late := t0.Add(2 * 365 * 24 * time.Hour)
	if _, err := ts.VerifyChain(alice.Chain, late); !errors.Is(err, ErrExpired) {
		t.Fatalf("expected expiry error, got %v", err)
	}
	early := t0.Add(-time.Hour)
	if _, err := ts.VerifyChain(alice.Chain, early); !errors.Is(err, ErrExpired) {
		t.Fatalf("expected not-yet-valid error, got %v", err)
	}
}

func TestProxyLifetimeClippedToSigner(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice") // valid 1 year
	proxy, err := alice.Delegate(t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Leaf().NotAfter.After(alice.Leaf().NotAfter) {
		t.Fatal("proxy outlives signer despite clipping")
	}
}

func TestTamperedProxyLifetimeRejected(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	// Forge a longer lifetime without re-signing.
	proxy.Chain[0].NotAfter = alice.Leaf().NotAfter.Add(24 * time.Hour)
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(proxy.Chain, t0.Add(time.Minute)); err == nil {
		t.Fatal("tampered proxy accepted")
	}
}

func TestUntrustedCARejected(t *testing.T) {
	ca := newCA(t)
	other, _ := NewCA("Rogue", t0, 24*time.Hour)
	mallory := newUser(t, other, "mallory")
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(mallory.Chain, t0.Add(time.Minute)); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("expected untrusted error, got %v", err)
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	alice.Chain[0].Subject = "/O=Repro/CN=root" // tamper
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(alice.Chain, t0.Add(time.Minute)); err == nil {
		t.Fatal("tampered certificate accepted")
	}
}

func TestEmptyChain(t *testing.T) {
	ts := NewTrustStore()
	if _, err := ts.VerifyChain(nil, t0); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("got %v", err)
	}
	var c Credential
	if _, err := c.Sign([]byte("x")); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("got %v", err)
	}
	if _, err := c.Delegate(t0, time.Hour); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("got %v", err)
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	ts := NewTrustStore(ca.Cert)
	msg := []byte("submit job 42")
	tok, err := proxy.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ts.Verify(msg, tok, t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=Repro/CN=alice" {
		t.Fatalf("id %q", id)
	}
	if _, err := ts.Verify([]byte("submit job 43"), tok, t0.Add(time.Minute)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("altered message accepted: %v", err)
	}
	if _, err := ts.Verify(msg, nil, t0); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("nil token: %v", err)
	}
}

func TestSignedTokenWireRoundTrip(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	tok, _ := alice.Sign([]byte("payload"))
	enc, err := EncodeSigned(tok)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSigned(enc)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.Verify([]byte("payload"), dec, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

// TestSignTokenIsTheEncodedSignature: the token built from the cached
// chain prefix is, byte for byte, EncodeSigned of Sign — for every
// alignment of the prefix against base64's three-byte groups — so it
// decodes to the same Signed and verifies under the same trust store,
// and making one costs the signature and the token.
func TestSignTokenIsTheEncodedSignature(t *testing.T) {
	ca := newCA(t)
	ts := NewTrustStore(ca.Cert)
	seen := map[int]bool{}
	for _, cn := range []string{"a", "ab", "abc", "alice"} {
		user := newUser(t, ca, cn)
		proxy, err := user.Delegate(t0, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, cred := range []*Credential{user, proxy} {
			for _, msg := range []string{"", "payload", "POST\n/jobs\nbody"} {
				signed, err := cred.Sign([]byte(msg))
				if err != nil {
					t.Fatal(err)
				}
				want, err := EncodeSigned(signed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cred.SignToken([]byte(msg))
				if err != nil || got != want {
					t.Fatalf("%s %q: SignToken gave\n%s (%v)\nEncodeSigned\n%s", cn, msg, got, err, want)
				}
				dec, err := DecodeSigned(got)
				if err != nil || !reflect.DeepEqual(dec, signed) {
					t.Fatalf("%s %q: decoded %+v (%v), signed %+v", cn, msg, dec, err, signed)
				}
				if id, err := ts.Verify([]byte(msg), dec, t0.Add(time.Minute)); err != nil || id != user.Subject() {
					t.Fatalf("%s %q: verified as %q, %v", cn, msg, id, err)
				}
				if _, err := ts.Verify([]byte(msg+"x"), dec, t0.Add(time.Minute)); !errors.Is(err, ErrBadSignature) {
					t.Fatalf("%s %q: token verifies another message: %v", cn, msg, err)
				}
			}
			seen[len(cred.headRest)] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("prefix remainders exercised: %v, want 0, 1 and 2", seen)
	}
	if _, err := new(Credential).SignToken(nil); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("empty credential: %v", err)
	}

	// A session's GRAM and GridFTP clients share one credential: the
	// first tokens may be asked for at once.
	cred := newUser(t, ca, "alice")
	msg := []byte("payload")
	signed, _ := cred.Sign(msg)
	want, _ := EncodeSigned(signed)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := cred.SignToken(msg); err != nil || got != want {
				t.Errorf("concurrent SignToken: %v, token differs: %t", err, got != want)
			}
		}()
	}
	wg.Wait()
	if n := testing.AllocsPerRun(50, func() { cred.SignToken(msg) }); n > 2 {
		t.Fatalf("SignToken allocates %v objects, want the signature and the token", n)
	}
}

func TestDecodeSignedGarbage(t *testing.T) {
	if _, err := DecodeSigned("!!not-base64!!"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeSigned("aGVsbG8="); err == nil { // valid b64, bad JSON
		t.Fatal("non-JSON accepted")
	}
}

func TestCredentialMarshalRoundTrip(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	b, err := proxy.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCredential(b)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(got.Chain, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// The decoded key must still sign verifiably.
	tok, err := got.Sign([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify([]byte("m"), tok, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestChainWireRoundTrip(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	enc, err := MarshalChain(alice.Chain)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := UnmarshalChain(enc)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(chain, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalChain("%%%"); err == nil {
		t.Fatal("garbage chain accepted")
	}
}

func TestIdentityHelper(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	if got := Identity(proxy.Chain); got != "/O=Repro/CN=alice" {
		t.Fatalf("identity %q", got)
	}
	if got := Identity(nil); got != "" {
		t.Fatalf("empty identity %q", got)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	ca := newCA(t)
	a := newUser(t, ca, "a")
	b := newUser(t, ca, "b")
	if a.Leaf().Fingerprint() != a.Leaf().Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	if a.Leaf().Fingerprint() == b.Leaf().Fingerprint() {
		t.Fatal("distinct certs share fingerprint")
	}
}

func TestKindString(t *testing.T) {
	if KindCA.String() != "ca" || KindUser.String() != "user" || KindProxy.String() != "proxy" {
		t.Fatal("kind names wrong")
	}
	if CertKind(7).String() != "kind(7)" {
		t.Fatal("unknown kind formatting")
	}
}

// Property: any message signed by a freshly delegated proxy verifies, and
// any single-byte mutation of the message does not.
func TestPropertySignedMessageIntegrity(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, err := alice.Delegate(t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	f := func(msg []byte, flip uint16) bool {
		tok, err := proxy.Sign(msg)
		if err != nil {
			return false
		}
		if _, err := ts.Verify(msg, tok, at); err != nil {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		mut := append([]byte(nil), msg...)
		mut[int(flip)%len(mut)] ^= 0xFF
		_, err = ts.Verify(mut, tok, at)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
