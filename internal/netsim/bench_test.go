package netsim

import (
	"io"
	"testing"

	"repro/internal/vtime"
)

func BenchmarkUnshapedConnWrite(b *testing.B) {
	clk := vtime.Real{}
	c, s := pipePair(b)
	sc := Wrap(c, clk, NewLink(clk, 0), nil)
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
	// 1 MB/s virtual on the event clock: pacing bookkeeping plus one clock
	// step per paced wait, no real sleep.
	clk := vtime.NewAuto()
	defer clk.Stop()
	c, s := pipePair(b)
	sc := Wrap(c, clk, NewLink(clk, 1<<20), nil)
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

func BenchmarkLinkTake(b *testing.B) {
	clk := vtime.NewAuto()
	defer clk.Stop()
	l := NewLink(clk, 1<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.take(4 << 10)
	}
}
