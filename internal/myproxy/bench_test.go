package myproxy

import (
	"testing"
	"time"
)

func BenchmarkLogon(b *testing.B) {
	f := newFixture(b)
	if err := f.client.Put("alice", "pw", f.user); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.client.Get("alice", "pw", time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}
