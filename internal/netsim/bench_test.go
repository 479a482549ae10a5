package netsim

import (
	"context"
	"io"
	"testing"

	"repro/internal/bubble"
)

func BenchmarkUnshapedConnWrite(b *testing.B) {
	c, s := pipePair(b)
	sc := Wrap(c, NewLink(0), nil)
	go io.Copy(io.Discard, s)
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShapedConnWrite(b *testing.B) {
	// 1 MB/s virtual in a bubble: pacing bookkeeping plus one clock step per
	// paced wait, no real sleep. The pipe's setup is timed too, once.
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	bubble.Run(func() {
		pipes := NewNet()
		ln := pipes.Listen()
		defer ln.Close()
		go func() {
			if s, err := ln.Accept(); err == nil {
				io.Copy(io.Discard, s)
				s.Close()
			}
		}()
		c, err := pipes.DialContext(context.Background(), "tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		sc := Wrap(c, NewLink(1<<20), nil)
		for i := 0; i < b.N; i++ {
			if _, err := sc.Write(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLinkTake(b *testing.B) {
	b.ReportAllocs()
	bubble.Run(func() {
		l := NewLink(1 << 30)
		for i := 0; i < b.N; i++ {
			l.take(4 << 10)
		}
	})
}
