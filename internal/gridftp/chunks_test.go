package gridftp

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChunkedRoundTrip(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("chunked executable bytes "), 2000)
	stats, err := f.alice.PutChunked("exe.gsh", data, nil, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checksum != digestOf(data) {
		t.Fatalf("checksum %s", stats.Checksum)
	}
	if stats.Fallback || stats.Compressed || stats.Resumed {
		t.Fatalf("unexpected flags: %+v", stats)
	}
	if stats.ChunksShipped == 0 || stats.WireBytes != int64(len(data)) {
		t.Fatalf("shipped %d wire %d", stats.ChunksShipped, stats.WireBytes)
	}
	got, err := f.alice.Get("exe.gsh")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestChunkedGzipRoundTrip(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("very compressible line\n"), 5000)
	gz := gzipBytes(t, data)
	stats, err := f.alice.PutChunked("exe.gsh", data, gz, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Compressed {
		t.Fatal("gzip wire not negotiated")
	}
	if stats.WireBytes != int64(len(gz)) || stats.WireBytes >= stats.LogicalBytes {
		t.Fatalf("wire %d logical %d", stats.WireBytes, stats.LogicalBytes)
	}
	// The server stores the inflated file and confirms its checksum.
	if stats.Checksum != digestOf(data) {
		t.Fatalf("checksum %s", stats.Checksum)
	}
	got, err := f.alice.Get("exe.gsh")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestChunkPutIdempotent(t *testing.T) {
	f := newFixture(t)
	chunk := []byte("one chunk of wire bytes")
	d := digestOf(chunk)
	if err := f.alice.PutChunk(d, chunk); err != nil {
		t.Fatal(err)
	}
	if err := f.alice.PutChunk(d, chunk); err != nil {
		t.Fatalf("re-ship rejected: %v", err)
	}
	missing, err := f.alice.HaveChunks([]string{d})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("chunk reported missing: %v", missing)
	}
}

func TestChunkPutWrongDigestRejected(t *testing.T) {
	f := newFixture(t)
	chunk := []byte("chunk body")
	wrong := digestOf([]byte("other body"))
	if err := f.alice.PutChunk(wrong, chunk); !errors.Is(err, ErrBadInput) {
		t.Fatalf("got %v", err)
	}
	// The mismatched body must not have been stored under either digest.
	missing, err := f.alice.HaveChunks([]string{wrong, digestOf(chunk)})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 2 {
		t.Fatalf("stored a corrupt chunk: missing=%v", missing)
	}
}

func TestChunkPutEmptyRejected(t *testing.T) {
	f := newFixture(t)
	if err := f.alice.PutChunk(digestOf(nil), nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("got %v", err)
	}
}

func TestCommitMissingChunk(t *testing.T) {
	f := newFixture(t)
	data := []byte("never shipped")
	_, err := f.alice.Commit("f.gsh", "", digestOf(data), []string{digestOf(data)})
	if !errors.Is(err, ErrNoChunk) {
		t.Fatalf("got %v", err)
	}
}

func TestCommitWrongFileChecksum(t *testing.T) {
	f := newFixture(t)
	chunk := []byte("chunk")
	if err := f.alice.PutChunk(digestOf(chunk), chunk); err != nil {
		t.Fatal(err)
	}
	_, err := f.alice.Commit("f.gsh", "", digestOf([]byte("not the file")), []string{digestOf(chunk)})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("got %v", err)
	}
	if _, err := f.alice.Get("f.gsh"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("corrupt file registered: %v", err)
	}
}

func TestCommitBadGzipStream(t *testing.T) {
	f := newFixture(t)
	chunk := []byte("this is not a gzip stream")
	if err := f.alice.PutChunk(digestOf(chunk), chunk); err != nil {
		t.Fatal(err)
	}
	_, err := f.alice.Commit("f.gsh", "gzip", digestOf(chunk), []string{digestOf(chunk)})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("got %v", err)
	}
}

func TestCommitOversizeManifest(t *testing.T) {
	f := newFixture(t)
	chunks := make([]string, MaxManifestChunks+1)
	for i := range chunks {
		chunks[i] = digestOf([]byte{byte(i), byte(i >> 8)})
	}
	_, err := f.alice.Commit("f.gsh", "", chunks[0], chunks)
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("got %v", err)
	}
}

func TestManifestDuplicateRefs(t *testing.T) {
	f := newFixture(t)
	// A file of one block repeated: the manifest references the same
	// digest three times but only one chunk crosses the wire.
	block := bytes.Repeat([]byte("x"), 1024)
	data := bytes.Repeat(block, 3)
	stats, err := f.alice.PutChunked("rep.gsh", data, nil, len(block))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksTotal != 3 || stats.ChunksShipped != 1 || stats.ChunksDeduped != 2 {
		t.Fatalf("total %d shipped %d deduped %d", stats.ChunksTotal, stats.ChunksShipped, stats.ChunksDeduped)
	}
	got, err := f.alice.Get("rep.gsh")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestChunkDedupAcrossOwners(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("shared content "), 4000)
	if _, err := f.alice.PutChunked("a.gsh", data, nil, 8<<10); err != nil {
		t.Fatal(err)
	}
	// Bob publishes the same bytes: the content-addressed store already
	// holds every chunk, so nothing ships — but the committed file is
	// bob's own, in his namespace.
	stats, err := f.bob.PutChunked("b.gsh", data, nil, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksShipped != 0 || stats.ChunksDeduped != stats.ChunksTotal {
		t.Fatalf("shipped %d deduped %d", stats.ChunksShipped, stats.ChunksDeduped)
	}
	got, err := f.bob.Get("b.gsh")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("bob's copy: %v", err)
	}
	if _, err := f.bob.Get("a.gsh"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("ownership leaked: %v", err)
	}
}

// cutChunks is data's raw-wire cut with every chunk's bytes, for tests
// that ship chunks by hand.
func cutChunks(data []byte, chunkBytes int) (order []string, byDigest map[string][]byte) {
	cut, err := BytesFile(data, nil).Cut(chunkBytes)
	if err != nil {
		panic(err)
	}
	byDigest = make(map[string][]byte)
	for i, d := range cut.Order {
		byDigest[d] = data[i*chunkBytes:][:cut.Sizes[d]]
	}
	return cut.Order, byDigest
}

func TestChunkedResume(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("resumable payload bytes "), 4000)
	order, byDigest := cutChunks(data, 8<<10)
	// Simulate a transfer that died mid-flight: only the first half of
	// the chunks reached the server, nothing was committed.
	for _, d := range order[:len(order)/2] {
		if err := f.alice.PutChunk(d, byDigest[d]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := f.alice.PutChunked("resume.gsh", data, nil, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed {
		t.Fatal("retry did not detect committed chunks")
	}
	if stats.ChunksShipped >= stats.ChunksTotal {
		t.Fatalf("re-shipped everything: %+v", stats)
	}
	got, err := f.alice.Get("resume.gsh")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

// TestConcurrentPutChunkedSameName races a resumed transfer (half the
// chunks already at the site from a transfer that died) against a fresh
// upload of the same file: both must land, and the registered file must
// be intact whichever commit wins.
func TestConcurrentPutChunkedSameName(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("contended payload bytes "), 8000)
	order, byDigest := cutChunks(data, 8<<10)
	for _, d := range order[:len(order)/2] {
		if err := f.alice.PutChunk(d, byDigest[d]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.alice.PutChunked("contended.gsh", data, nil, 8<<10); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	got, err := f.alice.Get("contended.gsh")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("contended file corrupted: %v", err)
	}
}

// stockServer mimics a server predating the chunk protocol: every /ftp/
// path is parsed as a file name, and the "/" inside the chunk paths makes
// them bad file names (400) — the downgrade signal PutChunked relies on.
func stockServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/ftp/")
		if strings.Contains(name, "/") {
			httpError(w, http.StatusBadRequest, "gridftp: bad file name")
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs
}

func TestChunkedFallbackToStockServer(t *testing.T) {
	f := newFixture(t)
	hs := stockServer(t, f.srv)
	old := &Client{BaseURL: hs.URL, Cred: f.alice.Cred}
	data := bytes.Repeat([]byte("payload for an old site "), 2000)
	stats, err := old.PutChunked("exe.gsh", data, gzipBytes(t, data), 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback {
		t.Fatal("fallback not reported")
	}
	if stats.Checksum != digestOf(data) {
		t.Fatalf("checksum %s", stats.Checksum)
	}
	got, err := old.Get("exe.gsh")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestChunkStoreEviction(t *testing.T) {
	cs := newChunkStore(100)
	a, b, c := bytes.Repeat([]byte("a"), 60), bytes.Repeat([]byte("b"), 60), bytes.Repeat([]byte("c"), 60)
	cs.put(digestOf(a), a)
	cs.put(digestOf(b), b) // over cap: a evicted
	if cs.has(digestOf(a)) {
		t.Fatal("oldest chunk not evicted")
	}
	if !cs.has(digestOf(b)) {
		t.Fatal("newest chunk evicted")
	}
	cs.put(digestOf(c), c)
	if cs.has(digestOf(b)) || !cs.has(digestOf(c)) {
		t.Fatal("FIFO order violated")
	}
}

func TestChunkEndpointsRequireAuth(t *testing.T) {
	f := newFixture(t)
	chunk := []byte("chunk")
	probe, _ := json.Marshal(haveRequest{Digests: []string{digestOf(chunk)}})
	manifest, _ := json.Marshal(chunkManifest{Name: "f", FileSha256: digestOf(chunk), Chunks: []string{digestOf(chunk)}})
	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/ftp/chunks/have", probe},
		{http.MethodPut, "/ftp/chunk/" + digestOf(chunk), chunk},
		{http.MethodPost, "/ftp/commit", manifest},
	} {
		req, _ := http.NewRequest(c.method, f.url+c.path, bytes.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s: status %d", c.method, c.path, resp.StatusCode)
		}
	}
}

// FuzzFtpPath drives the server's raw routing with arbitrary methods and
// paths: nothing may panic, and unauthenticated requests must never
// succeed.
func FuzzFtpPath(f *testing.F) {
	fx := newFixture(f)
	f.Add("GET", "/ftp/exe.gsh")
	f.Add("PUT", "/ftp/chunk/"+strings.Repeat("a", 64))
	f.Add("PUT", "/ftp/chunk/../../etc/passwd")
	f.Add("POST", "/ftp/chunks/have")
	f.Add("POST", "/ftp/commit")
	f.Add("DELETE", "/ftp/")
	f.Add("PATCH", "/ftp/chunk/zz")
	f.Fuzz(func(t *testing.T, method, path string) {
		req := httptest.NewRequest("GET", "http://site/", nil)
		req.Method = method
		req.URL.Path = path
		w := httptest.NewRecorder()
		fx.srv.ServeHTTP(w, req)
		if w.Code < 400 {
			t.Fatalf("%s %q: unauthenticated request answered %d", method, path, w.Code)
		}
	})
}

// FuzzChunkManifest drives the commit and have-probe decoders with
// arbitrary JSON: they must never panic, and whatever they accept must
// satisfy the documented invariants.
func FuzzChunkManifest(f *testing.F) {
	good, _ := json.Marshal(chunkManifest{
		Name: "f.gsh", Encoding: "gzip",
		FileSha256: strings.Repeat("0", 64),
		Chunks:     []string{strings.Repeat("a", 64), strings.Repeat("a", 64)},
	})
	f.Add(good)
	f.Add([]byte(`{"name":"f","file_sha256":"XYZ","chunks":["nothex"]}`))
	f.Add([]byte(`{"name":"a/b","file_sha256":"` + strings.Repeat("0", 64) + `","chunks":[]}`))
	f.Add([]byte(`{"digests":["` + strings.Repeat("f", 64) + `"]}`))
	f.Add([]byte(`{"chunks":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if m, err := parseManifest(body); err == nil {
			if m.Name == "" || strings.Contains(m.Name, "/") {
				t.Fatalf("accepted bad name %q", m.Name)
			}
			if m.Encoding != "" && m.Encoding != "gzip" {
				t.Fatalf("accepted encoding %q", m.Encoding)
			}
			if !validDigest(m.FileSha256) {
				t.Fatalf("accepted checksum %q", m.FileSha256)
			}
			if len(m.Chunks) == 0 || len(m.Chunks) > MaxManifestChunks {
				t.Fatalf("accepted %d chunks", len(m.Chunks))
			}
			for _, d := range m.Chunks {
				if !validDigest(d) {
					t.Fatalf("accepted chunk digest %q", d)
				}
			}
		}
		if req, err := parseHaveRequest(body); err == nil {
			if len(req.Digests) == 0 || len(req.Digests) > MaxManifestChunks {
				t.Fatalf("accepted %d digests", len(req.Digests))
			}
			for _, d := range req.Digests {
				if !validDigest(d) {
					t.Fatalf("accepted digest %q", d)
				}
			}
		}
	})
}

// TestFileSourceFailuresRegisterNothing: a source that cannot be opened,
// or ends before its declared size, fails the transfer on either path
// and leaves no file at the site.
func TestFileSourceFailuresRegisterNothing(t *testing.T) {
	f := newFixture(t)
	data := bytes.Repeat([]byte("declared but not delivered "), 2000)
	boom := errors.New("source went away")
	for name, open := range map[string]func() (io.ReadCloser, error){
		"cannot open": func() (io.ReadCloser, error) { return nil, boom },
		"ends short":  func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data[:len(data)/2])), nil },
		"fails midway": func() (io.ReadCloser, error) {
			return io.NopCloser(io.MultiReader(bytes.NewReader(data[:9000]), iotest.ErrReader(boom))), nil
		},
	} {
		file := BytesFile(data, nil)
		file.Open = open
		if sum, err := f.alice.PutFile("one.gsh", file); err == nil {
			t.Errorf("%s: PutFile confirmed %s", name, sum)
		}
		if stats, err := f.alice.PutChunkedFile("chunked.gsh", file, 4<<10); err == nil {
			t.Errorf("%s: PutChunkedFile confirmed %+v", name, stats)
		}
	}
	if names, err := f.alice.List(); err != nil || len(names) != 0 {
		t.Fatalf("site registered %v (%v)", names, err)
	}
}
