package jsdl

import "testing"

func BenchmarkMarshal(b *testing.B) {
	d := validDesc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(&d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	d := validDesc()
	doc, err := Marshal(&d)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(doc); err != nil {
			b.Fatal(err)
		}
	}
}
