package xsec

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func (ts *TrustStore) counts() (full, memo int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.fullVerifies, len(ts.memo)
}

// TestVerifiedChainMemo: a chain verified once is not verified in full
// again, and everything VerifyChain promises still holds on such a hit.
func TestVerifiedChainMemo(t *testing.T) {
	ca := newCA(t)
	user := newUser(t, ca, "alice")
	proxy, err := user.Delegate(t0.Add(time.Hour), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	leaf := proxy.Chain[0]
	inside := leaf.NotBefore.Add(time.Minute)
	ts := NewTrustStore(ca.Cert)

	for i := 0; i < 3; i++ {
		if id, err := ts.VerifyChain(proxy.Chain, inside.Add(time.Duration(i)*time.Second)); err != nil || id != "/O=Repro/CN=alice" {
			t.Fatalf("verify %d: %q, %v", i, id, err)
		}
	}
	if full, memo := ts.counts(); full != 1 || memo != 1 {
		t.Fatalf("three verifies of one chain: %d in full, %d remembered, want 1 and 1", full, memo)
	}

	// The given instant is still checked against every window.
	for name, at := range map[string]time.Time{
		"past the proxy's NotAfter":    leaf.NotAfter.Add(time.Nanosecond),
		"before the proxy's NotBefore": leaf.NotBefore.Add(-time.Nanosecond),
		"past the root's NotAfter":     ca.Cert.NotAfter.Add(time.Second),
	} {
		if _, err := ts.VerifyChain(proxy.Chain, at); !errors.Is(err, ErrExpired) {
			t.Errorf("memoised chain %s: %v, want ErrExpired", name, err)
		}
	}
	for _, at := range []time.Time{leaf.NotBefore, leaf.NotAfter} {
		if _, err := ts.VerifyChain(proxy.Chain, at); err != nil {
			t.Errorf("memoised chain at the edge of its window: %v", err)
		}
	}

	// A signed field of any certificate altered, the signatures kept: a
	// different chain, verified in full and refused.
	alter := map[string]func(chain []Certificate){
		"leaf NotAfter":  func(c []Certificate) { c[0].NotAfter = c[0].NotAfter.Add(time.Hour) },
		"leaf NotBefore": func(c []Certificate) { c[0].NotBefore = c[0].NotBefore.Add(-time.Hour) },
		"leaf subject":   func(c []Certificate) { c[0].Subject += "x" },
		"leaf serial":    func(c []Certificate) { c[0].Serial += "0" },
		"leaf key":       func(c []Certificate) { c[0].PublicKey = c[1].PublicKey },
		"user NotAfter":  func(c []Certificate) { c[1].NotAfter = c[1].NotAfter.Add(time.Hour) },
		"user subject":   func(c []Certificate) { c[1].Subject, c[0].Issuer = "/O=Repro/CN=alicf", "/O=Repro/CN=alicf" },
		"user kind":      func(c []Certificate) { c[1].Kind = KindProxy },
		"leaf signature": func(c []Certificate) { c[0].Signature = append([]byte(nil), c[1].Signature...) },
	}
	for name, change := range alter {
		forged := append([]Certificate(nil), proxy.Chain...)
		change(forged)
		before, _ := ts.counts()
		if _, err := ts.VerifyChain(forged, inside); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s altered after the genuine chain was memoised: %v, want ErrBadSignature", name, err)
		}
		if after, _ := ts.counts(); after != before+1 {
			t.Errorf("%s altered: not verified in full", name)
		}
	}

	// The message's own signature is checked every time.
	msg := []byte("submit")
	signed, err := proxy.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify(msg, signed, inside); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify([]byte("submit something else"), signed, inside); !errors.Is(err, ErrBadSignature) {
		t.Errorf("bad message signature over a memoised chain: %v, want ErrBadSignature", err)
	}
	other, _ := user.Delegate(t0.Add(time.Hour), time.Hour)
	stolen, _ := other.Sign(msg)
	stolen.Chain = proxy.Chain
	if _, err := ts.Verify(msg, stolen, inside); !errors.Is(err, ErrBadSignature) {
		t.Errorf("another key's signature under a memoised chain: %v, want ErrBadSignature", err)
	}

	// Add forgets: the same subject with another key no longer vouches
	// for the chain.
	impostor, err := NewCA("TestCA", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts.Add(impostor.Cert)
	if _, memo := ts.counts(); memo != 0 {
		t.Fatalf("Add kept %d remembered chains", memo)
	}
	if _, err := ts.VerifyChain(proxy.Chain, inside); !errors.Is(err, ErrBadSignature) {
		t.Errorf("chain of a replaced root: %v, want ErrBadSignature", err)
	}
	ts.Add(ca.Cert)
	if _, err := ts.VerifyChain(proxy.Chain, inside); err != nil {
		t.Errorf("chain of the restored root: %v", err)
	}
}

func TestVerifiedChainMemoIsBounded(t *testing.T) {
	ca := newCA(t)
	user := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	for i := 0; i < 2000; i++ {
		proxy, err := user.Delegate(t0, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ts.VerifyChain(proxy.Chain, t0.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		if _, memo := ts.counts(); memo > maxVerified {
			t.Fatalf("%d chains remembered after %d verifies, bound %d", memo, i+1, maxVerified)
		}
	}
	if full, memo := ts.counts(); full != 2000 || memo != 2000-maxVerified {
		t.Fatalf("%d verified in full, %d remembered", full, memo)
	}
}

func TestTrustStoreConcurrentVerifyAndAdd(t *testing.T) {
	ca := newCA(t)
	user := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proxy, err := user.Delegate(t0, time.Hour)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				if _, err := ts.VerifyChain(proxy.Chain, t0.Add(time.Minute)); err != nil {
					t.Errorf("goroutine %d verify %d: %v", g, i, err)
					return
				}
				if i%10 == g {
					extra, err := NewCA(fmt.Sprintf("Extra-%d-%d", g, i), t0, time.Hour)
					if err != nil {
						t.Error(err)
						return
					}
					ts.Add(extra.Cert)
				}
			}
		}(g)
	}
	wg.Wait()
}
