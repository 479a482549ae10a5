package gridsim

import (
	"testing"

	"repro/internal/jsdl"
	"repro/internal/vtime"
)

func BenchmarkSubmitToCompletion(b *testing.B) {
	clk := autoClock(b)
	s := NewSite(SiteConfig{Name: "bench", Nodes: 8, CoresPerNode: 8}, clk)
	if err := s.Store().Put(owner, "e.gsh", []byte("echo done\n")); err != nil {
		b.Fatal(err)
	}
	desc := jsdl.Description{Owner: owner, Executable: "e.gsh"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(desc)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if j.State() != Succeeded {
			b.Fatalf("state %s", j.State())
		}
	}
}

func BenchmarkSubmitThroughputParallel(b *testing.B) {
	clk := autoClock(b)
	g, err := TeraGrid(clk)
	if err != nil {
		b.Fatal(err)
	}
	src := []byte("echo done\n")
	for _, name := range g.SiteNames() {
		s, _ := g.Site(name)
		s.Store().Put(owner, "e.gsh", src)
	}
	desc := jsdl.Description{Owner: owner, Executable: "e.gsh"}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j, err := g.Submit(desc)
			if err != nil {
				b.Fatal(err)
			}
			<-j.Done()
		}
	})
}

func BenchmarkBrokerPickSite(b *testing.B) {
	g, err := TeraGrid(vtime.Real{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.PickSite(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorePutGet(b *testing.B) {
	st := NewStore()
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put("o", "f", data); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Get("o", "f"); err != nil {
			b.Fatal(err)
		}
	}
}
