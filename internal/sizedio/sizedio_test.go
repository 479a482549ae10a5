package sizedio

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestReadAllReturnsTheStream(t *testing.T) {
	const limit = 1 << 20
	for _, tc := range []struct {
		name     string
		size     int
		declared int64
	}{
		{"exact", 70000, 70000},
		{"empty declared empty", 0, 0},
		{"undeclared", 70000, -1},
		{"undeclared empty", 0, -1},
		{"shorter than declared", 100, 70000},
		{"longer than declared", 70000, 100},
		{"one past declared", 4097, 4096},
		{"at the limit", limit, limit},
	} {
		want := payload(tc.size)
		for _, wrap := range []func(io.Reader) io.Reader{
			func(r io.Reader) io.Reader { return r },
			iotest.OneByteReader,
			iotest.DataErrReader, // final bytes arrive together with io.EOF
		} {
			got, err := ReadAll(wrap(bytes.NewReader(want)), tc.declared, limit)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %d bytes, %v; want %d bytes", tc.name, len(got), err, len(want))
			}
		}
	}
}

func TestReadAllHonestSenderCostsOneBuffer(t *testing.T) {
	src := payload(256 << 10)
	r := bytes.NewReader(src)
	var got []byte
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(src)
		got, _ = ReadAll(r, int64(len(src)), 1<<30)
	})
	if cap(got) != len(src) {
		t.Fatalf("buffer of %d bytes for a %d-byte stream", cap(got), len(src))
	}
	// The buffer and the one-byte EOF probe.
	if allocs > 2 {
		t.Fatalf("%v allocations, want the buffer and the probe", allocs)
	}
}

func TestReadAllLimit(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("x"), 1<<40, 1<<20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("declared past the limit: %v", err)
	}
	for _, declared := range []int64{-1, 10, 1000, 1001} {
		got, err := ReadAll(bytes.NewReader(payload(1001)), declared, 1000)
		if !errors.Is(err, ErrTooLarge) || got != nil {
			t.Fatalf("declared %d, 1001 bytes, limit 1000: %d bytes, %v", declared, len(got), err)
		}
	}
	if _, err := ReadAll(strings.NewReader("x"), -1, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("limit 0: %v", err)
	}
}

// capReader records the largest buffer ReadAll ever offered it.
type capReader struct {
	r      io.Reader
	maxCap int
}

func (c *capReader) Read(p []byte) (int, error) {
	c.maxCap = max(c.maxCap, cap(p))
	return c.r.Read(p)
}

func TestReadAllLyingDeclarationPinsLittle(t *testing.T) {
	// Declares 1 GB, sends 10 bytes: only MaxPrealloc is ever reserved.
	cr := &capReader{r: strings.NewReader("ten bytes!")}
	got, err := ReadAll(cr, 1<<30, 1<<31)
	if err != nil || string(got) != "ten bytes!" {
		t.Fatalf("%q %v", got, err)
	}
	if cr.maxCap > MaxPrealloc {
		t.Fatalf("reserved %d bytes on the strength of a header", cr.maxCap)
	}
	// Past MaxPrealloc the buffer follows the bytes that arrived, at most
	// doubling, and never passes the limit.
	const size, limit = MaxPrealloc + MaxPrealloc/2, 2*MaxPrealloc - 1
	cr = &capReader{r: bytes.NewReader(make([]byte, size))}
	got, err = ReadAll(cr, limit, limit)
	if err != nil || len(got) != size {
		t.Fatalf("%d bytes, %v", len(got), err)
	}
	if cr.maxCap > limit {
		t.Fatalf("buffer grew to %d, past the limit %d", cr.maxCap, limit)
	}
}

// TestCopyLendsOnePooledBuffer: Copy moves the bytes through a 32 KB
// buffer, and that buffer goes back to the free list whether the copy
// ends at EOF or in an error, so no copy allocates, across a collection.
func TestCopyLendsOnePooledBuffer(t *testing.T) {
	src := payload(100 << 10)
	var dst bytes.Buffer
	cr := &capReader{r: bytes.NewReader(src)}
	if n, err := Copy(struct{ io.Writer }{&dst}, cr); err != nil || n != int64(len(src)) || !bytes.Equal(dst.Bytes(), src) {
		t.Fatalf("copied %d bytes, %v", n, err)
	}
	if cr.maxCap != 32<<10 {
		t.Fatalf("copied through a %d-byte buffer", cr.maxCap)
	}
	boom := errors.New("boom")
	if _, err := Copy(io.Discard, io.MultiReader(strings.NewReader("partial"), iotest.ErrReader(boom))); !errors.Is(err, boom) {
		t.Fatalf("failed copy: %v", err)
	}
	runtime.GC() // a collection takes nothing off the list
	r := bytes.NewReader(src)
	var plainR io.Reader = struct{ io.Reader }{r}
	var plainW io.Writer = struct{ io.Writer }{io.Discard}
	failing := iotest.ErrReader(boom)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(src)
		Copy(plainW, plainR)
		Copy(plainW, failing)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pair of copies: a buffer did not go back to the list", allocs)
	}
}

func TestReadAllPassesReadErrorsThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, declared := range []int64{-1, 7, 100} {
		r := io.MultiReader(strings.NewReader("partial"), iotest.ErrReader(boom))
		if _, err := ReadAll(r, declared, 1000); !errors.Is(err, boom) {
			t.Fatalf("declared %d: %v", declared, err)
		}
	}
}

// TestFreeListBoundsWhatItKeeps: a list keeps at most GOMAXPROCS items and
// none whose Cap is past MaxKept, and a collection takes none of them.
func TestFreeListBoundsWhatItKeeps(t *testing.T) {
	made := 0
	l := NewFreeList(func() *bytes.Buffer { made++; return new(bytes.Buffer) })
	bound := runtime.GOMAXPROCS(0)
	var out []*bytes.Buffer
	for range bound + 2 {
		out = append(out, l.Get())
	}
	for _, b := range out {
		l.Put(b)
	}
	if l.Len() != bound {
		t.Fatalf("%d items kept, bound %d", l.Len(), bound)
	}
	runtime.GC()
	runtime.GC()
	for range bound {
		l.Get()
	}
	if made != bound+2 {
		t.Fatalf("%d items made for %d gets: a collection emptied the list", made, 2*bound+2)
	}
	l.Put(bytes.NewBuffer(make([]byte, 0, MaxKept+1)))
	if l.Len() != 0 {
		t.Fatalf("a %d B buffer was kept, cap %d", MaxKept+1, MaxKept)
	}
}
