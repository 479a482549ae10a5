package xsec

import (
	"testing"
	"time"
)

func benchSetup(b *testing.B) (*CA, *Credential, *Credential, *TrustStore) {
	b.Helper()
	ca, err := NewCA("BenchCA", t0, 10*365*24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	user, err := ca.IssueUser("bench", t0, 365*24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	proxy, err := user.Delegate(t0, 12*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	return ca, user, proxy, NewTrustStore(ca.Cert)
}

func BenchmarkDelegate(b *testing.B) {
	_, user, _, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := user.Delegate(t0, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignToken(b *testing.B) {
	_, _, proxy, _ := benchSetup(b)
	msg := []byte("submit job with some payload attached to it")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.SignToken(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySignedProxyChain(b *testing.B) {
	_, _, proxy, ts := benchSetup(b)
	msg := []byte("submit job with some payload attached to it")
	tok := sign(b, proxy, msg)
	at := t0.Add(time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Verify(msg, tok, at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyChainOnly(b *testing.B) {
	_, _, proxy, ts := benchSetup(b)
	at := t0.Add(time.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ts.VerifyChain(proxy.Chain, at); err != nil {
			b.Fatal(err)
		}
	}
}
