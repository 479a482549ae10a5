package hop

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bubble"
	"repro/internal/hop/hoptest"
	"repro/internal/netsim"
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

// putStream streams b to srv as one PUT over rt and fails unless the
// server confirmed every byte.
func putStream(t *testing.T, rt http.RoundTripper, srv *httptest.Server, b []byte, header http.Header, open func() (io.ReadCloser, error)) {
	t.Helper()
	if open == nil {
		open = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(b)), nil }
	}
	rep, err := DoStream(rt, http.MethodPut, mustParse(t, srv.URL), "/f", header, int64(len(b)), open, 1<<10)
	if err != nil || rep.Status != http.StatusOK {
		t.Errorf("stream: %d %s, %v", rep.Status, rep.Body, err)
	}
}

// TestStreamedBodyAllocations: a 1 MB body streamed on a warm connection
// costs a few KB per request, client and server together — not the fresh
// 32 KB copy buffer a TCP connection's own ReadFrom makes for every body
// that is neither a file nor a socket.
func TestStreamedBodyAllocations(t *testing.T) {
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

// deadOnReuseDial dials TCP, counts its dials and wraps every connection in
// a hoptest.DeadOnReuse that armed arms.
func deadOnReuseDial(armed *atomic.Bool, dials *atomic.Int32) func(context.Context, string, string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return hoptest.DeadOnReuse{Conn: conn, Armed: armed}, err
	}
}

// TestDeadKeepAliveReplaysThroughPooledCopy: a streamed PUT that meets a
// dead pooled connection is sent again on a fresh one — GetBody reopens the
// source, every body is closed before the call returns, the server gets
// every byte — and the buffer the replay copied through is back in the
// pool for the next request.
func TestDeadKeepAliveReplaysThroughPooledCopy(t *testing.T) {
	// One P and no collection, so the buffer the replay gives back stays
	// where the next request looks for it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := digestServer(t)
	var armed atomic.Bool
	var dials atomic.Int32
	tr := NewTransport(deadOnReuseDial(&armed, &dials))
	defer tr.CloseIdleConnections()
	b, header := body(7)
	var opens, closes atomic.Int32
	open := func() (io.ReadCloser, error) {
		opens.Add(1)
		return closeCounter{bytes.NewReader(b), &closes}, nil
	}
	putStream(t, tr, srv, b, header, open)
	armed.Store(true)
	putStream(t, tr, srv, b, header, open)
	if armed.Load() || dials.Load() != 2 || opens.Load() != 3 || closes.Load() != 3 {
		t.Fatalf("armed=%v, %d dials, %d opens, %d closes: want the dead connection met, redialled and the body reopened, every body closed",
			armed.Load(), dials.Load(), opens.Load(), closes.Load())
	}
	if raceEnabled {
		return // the detector's own allocations put this request at ~20 KB
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	putStream(t, tr, srv, b, header, open)
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 16<<10 {
		t.Fatalf("the request after the replay allocates %d B: the copy buffer did not go back", spent)
	}
}

// TestRoundTripAllocations counts a warm GET and a warm 1 KB POST through
// Do against an in-process server, client and server together (the count
// is the process's). Over a clone of http.DefaultTransport the pair cost
// 138 objects (61 + 77); this transport, 85 with net/http's framing, 62
// with its own, and 54 with each request and each reply one object.
func TestRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	root := mustParse(t, srv.URL)
	post := bytes.Repeat([]byte("x"), 1<<10)
	pair := func() {
		if rep, err := Do(nil, http.MethodGet, root, "/x", nil, nil, 1<<10); err != nil || rep.Status != http.StatusOK {
			t.Fatalf("GET: %+v, %v", rep, err)
		}
		rep, err := Do(nil, http.MethodPost, root, "/x", Header("Content-Type", "application/octet-stream"), post, 1<<10)
		if err != nil || rep.Status != http.StatusOK {
			t.Fatalf("POST: %+v, %v", rep, err)
		}
	}
	pair() // dials
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, pair)
	t.Logf("a GET and a 1 KB POST: %.0f objects", allocs)
	if allocs > 54 {
		t.Fatalf("a GET and a 1 KB POST allocate %.0f objects, want <= 54", allocs)
	}
}

// TestRequestHeadOnTheWire pins the bytes a GET and a POST put on the
// socket: net/http's request writer, as http.Transport used it, without
// the Accept-Encoding: gzip that transport added — no server here
// compresses, and hop would have to inflate.
func TestRequestHeadOnTheWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	heads := make(chan string, 2)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var raw bytes.Buffer
		br := bufio.NewReader(io.TeeReader(conn, &raw))
		for i := 0; i < 2; i++ {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.Copy(io.Discard, req.Body)
			heads <- raw.String()
			raw.Reset()
			io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
		}
	}()
	root := mustParse(t, "http://"+ln.Addr().String())
	if _, err := Do(nil, http.MethodGet, root, "/a%2Fb?c=d", nil, nil, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := Do(nil, http.MethodPost, root, "/p", Header("X-Grid-Token", "t", "Content-Type", "text/xml"), []byte("body"), 16); err != nil {
		t.Fatal(err)
	}
	host := "Host: " + ln.Addr().String() + "\r\nUser-Agent: Go-http-client/1.1\r\n"
	for _, want := range []string{
		"GET /a%2Fb?c=d HTTP/1.1\r\n" + host + "\r\n",
		"POST /p HTTP/1.1\r\n" + host + "Content-Length: 4\r\nContent-Type: text/xml\r\nX-Grid-Token: t\r\n\r\nbody",
	} {
		if got := <-heads; got != want {
			t.Errorf("on the wire:\n%q\nwant\n%q", got, want)
		}
	}
}

// idleConns is how many connections tr's pool holds.
func idleConns(tr *Transport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.idle)
}

// TestMain runs the tests that need a bubble under GOEXPERIMENT=synctest
// (bubble.Main).
func TestMain(m *testing.M) { bubble.Main(m) }

// pipeServer serves h over in-process pipes from inside the calling
// bubble, and returns its root and a Transport that dials it. The server
// closes in cleanup, and with it every connection it holds.
func pipeServer(t *testing.T, h http.HandlerFunc) (*url.URL, *Transport, *http.Server) {
	t.Helper()
	pipes := netsim.NewNet()
	ln := pipes.Listen()
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	tr := NewTransport(pipes.DialContext)
	t.Cleanup(tr.CloseIdleConnections)
	return mustParse(t, "http://"+ln.Addr().String()), tr, srv
}

// TestTransportStartsNoGoroutine: 64 concurrent hops leave at most
// http.DefaultMaxIdleConnsPerHost connections pooled and no goroutine the
// transport made — http.Transport runs two per pooled connection — and
// once the transport's CloseIdleConnections (what the gateway calls after a
// failed hop) has run, the pool is empty. The hops run in a bubble, which
// returns only once every goroutine started in it has exited: the
// transport's, the server's and the connections' alike.
func TestTransportStartsNoGoroutine(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		root, tr, srv := pipeServer(t, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok"))
		})
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rep, err := Do(tr, http.MethodGet, root, "/x", nil, nil, 16); err != nil || string(rep.Body) != "ok" {
					t.Errorf("hop: %+v, %v", rep, err)
				}
			}()
		}
		wg.Wait()
		if n := idleConns(tr); n < 1 || n > http.DefaultMaxIdleConnsPerHost {
			t.Errorf("%d idle connections, want 1..%d", n, http.DefaultMaxIdleConnsPerHost)
		}
		buf := make([]byte, 1<<20)
		for _, line := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n") {
			if strings.HasPrefix(line, "created by repro/internal/hop.(*") || strings.HasPrefix(line, "created by net/http.(*Transport)") {
				t.Errorf("a goroutine of the transport: %s", line)
			}
		}
		tr.CloseIdleConnections()
		if n := idleConns(tr); n != 0 {
			t.Errorf("%d idle connections after CloseIdleConnections", n)
		}
		srv.Close()
	})
}

// TestIdleConnectionsExpireBeforeTheServerDrops: a connection idle for
// idleTimeout is closed, not reused, and idleTimeout is under the idle
// timeout of every server in the tree, so the client always retires a
// connection first.
func TestIdleConnectionsExpireBeforeTheServerDrops(t *testing.T) {
	if idleTimeout >= netsim.IdleTimeout {
		t.Fatalf("idle connections live %v, servers close them at %v", idleTimeout, netsim.IdleTimeout)
	}
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	tr := NewTransport(nil)
	defer tr.CloseIdleConnections()
	root := mustParse(t, srv.URL)
	for i := 0; i < 3; i++ {
		if i == 2 {
			tr.mu.Lock()
			tr.idle[0].idleSince = tr.idle[0].idleSince.Add(-idleTimeout)
			tr.mu.Unlock()
		}
		if _, err := Do(tr, http.MethodGet, root, "/", nil, nil, 16); err != nil {
			t.Fatal(err)
		}
	}
	if conns.Load() != 2 || idleConns(tr) != 1 {
		t.Fatalf("%d connections, %d idle: want the second request on the first connection, the third on a new one", conns.Load(), idleConns(tr))
	}
}
