package gridftp

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// signedPut builds a PUT the server will accept; declared=false drops
// the Content-Length, as a chunked-encoding sender would.
func (f *fixture) signedPut(t testing.TB, name string, data []byte, declared bool) *http.Request {
	t.Helper()
	checksum := digestOf(data)
	tok, err := f.alice.sign(http.MethodPut, name, checksum)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/ftp/"+name, bytes.NewReader(data))
	req.Header.Set(TokenHeader, tok)
	req.Header.Set(ChecksumHeader, checksum)
	if !declared {
		req.ContentLength = -1
	}
	return req
}

func TestPutWithAndWithoutDeclaredLength(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("executable bytes "), 5000)
	for _, declared := range []bool{true, false} {
		rec := httptest.NewRecorder()
		f.srv.ServeHTTP(rec, f.signedPut(t, "exe.gsh", data, declared))
		if rec.Code != http.StatusCreated {
			t.Fatalf("declared=%v: status %d %s", declared, rec.Code, rec.Body)
		}
		got, err := f.alice.Get("exe.gsh")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("declared=%v: stored payload differs (%v)", declared, err)
		}
	}
}

// TestOversizeChunkRefused: a chunk past MaxChunkBytes is a 413 whether
// the sender owns up to its length (refused before a byte is read) or
// not (refused once the limit is crossed).
func TestOversizeChunkRefused(t *testing.T) {
	f := newFixture(t)
	body := make([]byte, MaxChunkBytes+1)
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPut, "/ftp/chunk/"+digestOf(body), bytes.NewReader(body))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		f.srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("declared=%v: status %d %s", declared, rec.Code, rec.Body)
		}
	}
}

// TestPutHandlerByteBudget: a PUT with a declared length costs the body
// buffer and the site store's own copy, not a buffer grown from 512 B.
func TestPutHandlerByteBudget(t *testing.T) {
	f := newFixture(t)
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	req := f.signedPut(t, "budget.bin", data, true)
	got := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := req.Clone(req.Context())
			r.Body = io.NopCloser(bytes.NewReader(data))
			rec := httptest.NewRecorder()
			f.srv.ServeHTTP(rec, r)
			if rec.Code != http.StatusCreated {
				b.Fatalf("status %d %s", rec.Code, rec.Body)
			}
		}
	}).AllocedBytesPerOp()
	if limit := int64(len(data)) * 9 / 4; got > limit {
		t.Fatalf("PUT of %d B allocates %d B server-side, budget %d", len(data), got, limit)
	}
}
