package hop

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sizedio"
)

const streamed = 1 << 20

// digestServer answers 200 to a PUT whose body hashes to its X-Sum header
// and 400 to any other. It reads through the pooled buffer too, so that
// what the allocation guards count is the client's.
func digestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := sha256.New()
		n, err := sizedio.Copy(h, r.Body)
		if err != nil || n != r.ContentLength || hex.EncodeToString(h.Sum(nil)) != r.Header.Get("X-Sum") {
			http.Error(w, fmt.Sprintf("%d bytes, %v: digest mismatch", n, err), http.StatusBadRequest)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// body is a distinct 1 MB body for seed and the header that carries its
// digest.
func body(seed byte) ([]byte, http.Header) {
	b := make([]byte, streamed)
	for i := range b {
		b[i] = seed + byte(i/251)
	}
	sum := sha256.Sum256(b)
	return b, Header("X-Sum", hex.EncodeToString(sum[:]))
}

// putStream streams b to srv as one PUT over c and fails unless the
// server confirmed every byte.
func putStream(t *testing.T, c *http.Client, srv *httptest.Server, b []byte, header http.Header, open func() (io.ReadCloser, error)) {
	t.Helper()
	if open == nil {
		open = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(b)), nil }
	}
	rep, err := DoStream(c, http.MethodPut, mustParse(t, srv.URL), "/f", header, int64(len(b)), open, 1<<10)
	if err != nil || rep.Status != http.StatusOK {
		t.Errorf("stream: %d %s, %v", rep.Status, rep.Body, err)
	}
}

// TestStreamedBodyAllocations: a 1 MB body streamed on a warm connection
// costs a few KB per request, client and server together — not the fresh
// 32 KB copy buffer a TCP connection's own ReadFrom makes for every body
// that is neither a file nor a socket.
func TestStreamedBodyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds Puts under the race detector")
	}
	srv := digestServer(t)
	b, header := body(1)
	// One P and no collection, so the pool keeps what it was given.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	putStream(t, nil, srv, b, header, nil) // dials and fills the pools
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		putStream(t, nil, srv, b, header, nil)
	}
	runtime.ReadMemStats(&after)
	// Measured ~5.6 KB; a fresh copy buffer alone is twice the bar.
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 16<<10 {
		t.Fatalf("a streamed 1 MB PUT allocates %d B", perOp)
	}
}

// TestConcurrentStreamsKeepTheirBytes: eight goroutines stream distinct
// bodies through the one transport at once, and every body arrives as it
// was sent — no two requests ever copy through the same buffer. Run it
// under -race.
func TestConcurrentStreamsKeepTheirBytes(t *testing.T) {
	srv := digestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		b, header := body(byte(g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				putStream(t, nil, srv, b, header, nil)
			}
		}()
	}
	wg.Wait()
}

// deadOnReuse is a connection whose peer went away while it sat in the
// pool: once armed, the next write fails with nothing written.
type deadOnReuse struct {
	net.Conn
	armed *atomic.Bool
}

func (c deadOnReuse) Write(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("connection reset by peer")
	}
	return c.Conn.Write(p)
}

// TestDeadKeepAliveReplaysThroughPooledCopy: a streamed PUT that meets a
// dead pooled connection is sent again on a fresh one — GetBody reopens the
// source, every body is closed, the server gets every byte — and the
// buffer the replay copied through is back in the pool for the next
// request.
func TestDeadKeepAliveReplaysThroughPooledCopy(t *testing.T) {
	srv := digestServer(t)
	var armed atomic.Bool
	var dials atomic.Int32
	tr := pooledCopies(&http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return deadOnReuse{conn, &armed}, err
	}})
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	b, header := body(7)
	var opens, closes atomic.Int32
	open := func() (io.ReadCloser, error) {
		opens.Add(1)
		return closeCounter{bytes.NewReader(b), &closes}, nil
	}
	putStream(t, c, srv, b, header, open)
	armed.Store(true)
	putStream(t, c, srv, b, header, open)
	if armed.Load() || dials.Load() != 2 || opens.Load() != 3 {
		t.Fatalf("armed=%v, %d dials, %d opens: want the dead connection met, redialled and the body reopened", armed.Load(), dials.Load(), opens.Load())
	}
	// The transport may close a body after the round trip has returned.
	for deadline := time.Now().Add(5 * time.Second); closes.Load() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 bodies closed", closes.Load())
		}
	}
	if raceEnabled {
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	putStream(t, c, srv, b, header, open)
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 16<<10 {
		t.Fatalf("the request after the replay allocates %d B: the copy buffer did not go back", spent)
	}
}
