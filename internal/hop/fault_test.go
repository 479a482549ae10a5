package hop

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bubble"
)

// faultRig is a server and a Transport that dials it through the
// DeadOnReuse seam, with what each side counted.
type faultRig struct {
	tr           *Transport
	srv          *httptest.Server
	armed        atomic.Bool  // the next write on a pooled connection fails
	dials        atomic.Int32 // connections the transport opened, or tried to past dialLimit
	dialLimit    int32        // when set, a dial past this many is refused
	conns        atomic.Int32 // connections the server accepted
	posts, other atomic.Int32 // requests the handler was given
	abort        atomic.Int32 // handler calls left to drop without a reply
	closeIdle    bool         // the server closes every connection it would keep
	closed       chan struct{}
	handler      http.HandlerFunc // after the counting; nil answers "ok"
	plainDialler bool             // dial without the seam, so the peer's close is visible
}

func (r *faultRig) start(t *testing.T) *faultRig {
	r.closed = make(chan struct{}, 16) // more than any row's connections: the hook never blocks
	r.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost {
			r.posts.Add(1)
		} else {
			r.other.Add(1)
		}
		if r.abort.Add(-1) >= 0 {
			panic(http.ErrAbortHandler) // the connection closes with no reply
		}
		if r.handler == nil {
			io.Copy(io.Discard, req.Body)
			io.WriteString(w, "ok")
			return
		}
		r.handler(w, req)
	}))
	r.srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		switch {
		case s == http.StateNew:
			r.conns.Add(1)
		case s == http.StateIdle && r.closeIdle:
			c.Close()
		case s == http.StateClosed:
			r.closed <- struct{}{}
		}
	}
	r.srv.Start()
	t.Cleanup(r.srv.Close)
	dial := deadOnReuseDial(&r.armed, &r.dials)
	if r.plainDialler {
		dial = nil
	}
	if limit, next := r.dialLimit, dial; limit > 0 {
		dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if r.dials.Load() >= limit {
				r.dials.Add(1)
				return nil, errors.New("dial refused past the rig's limit")
			}
			return next(ctx, network, addr)
		}
	}
	r.tr = NewTransport(dial)
	t.Cleanup(r.tr.CloseIdleConnections)
	return r
}

// do sends method with body ("" for none) and returns the reply.
func (r *faultRig) do(t *testing.T, method, body string) (Reply, error) {
	t.Helper()
	return Do(r.tr, method, mustParse(t, r.srv.URL), "/x", nil, []byte(body), 64<<10)
}

// ok fails the test unless method gets the handler's "ok".
func (r *faultRig) ok(t *testing.T, method string) {
	t.Helper()
	body := ""
	if method == http.MethodPost {
		body = "payload"
	}
	if rep, err := r.do(t, method, body); err != nil || string(rep.Body) != "ok" {
		t.Fatalf("%s: %+v, %v", method, rep, err)
	}
}

// count fails the test unless the rig counted what is wanted.
func (r *faultRig) count(t *testing.T, dials, other, posts, idle int) {
	t.Helper()
	if int(r.dials.Load()) != dials || int(r.other.Load()) != other || int(r.posts.Load()) != posts || idleConns(r.tr) != idle {
		t.Fatalf("%d dials, %d other requests, %d POSTs, %d idle; want %d, %d, %d, %d",
			r.dials.Load(), r.other.Load(), r.posts.Load(), idleConns(r.tr), dials, other, posts, idle)
	}
}

// rawReply answers with reply as it is, one byte per write if byByte, and
// closes the connection: framing a Go server does not write.
func rawReply(reply string, byByte bool) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		for n := len(reply); reply != ""; reply = reply[n:] {
			if byByte {
				n = 1
			}
			if _, err := io.WriteString(conn, reply[:n]); err != nil {
				return
			}
		}
	}
}

// TestTransportFaults is one table for the transport every internal hop
// takes: each way a keep-alive connection or a reply can go wrong, and
// what the caller and the server see of it. A request is retried only on a
// connection that had carried one before, only when none of it was written
// or it is a GET with no reply byte, and a POST that reached the server is
// never sent again. Run it under -race.
func TestTransportFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"peer gone while pooled (write fails, nothing written), GET sent again", func(t *testing.T) {
			r := (&faultRig{}).start(t)
			r.ok(t, http.MethodGet)
			r.armed.Store(true)
			r.ok(t, http.MethodGet)
			r.count(t, 2, 2, 0, 1)
		}},
		{"peer gone while pooled (write fails, nothing written), POST sent again with its body reopened", func(t *testing.T) {
			r := (&faultRig{}).start(t)
			r.ok(t, http.MethodPost)
			r.armed.Store(true)
			r.ok(t, http.MethodPost)
			r.count(t, 2, 0, 2, 1) // each POST counted once
		}},
		{"peer closed an idle connection, a GET replays and a POST is not sent twice", func(t *testing.T) {
			r := (&faultRig{closeIdle: true, plainDialler: true}).start(t)
			r.ok(t, http.MethodGet)
			<-r.closed
			r.ok(t, http.MethodGet) // no reply byte on the closed one: sent again on a new one
			<-r.closed
			if _, err := r.do(t, http.MethodPost, "payload"); err == nil {
				t.Fatal("a POST written to a closed connection succeeded")
			}
			if r.conns.Load() != 2 || r.other.Load() != 2 || r.posts.Load() != 0 || idleConns(r.tr) != 0 {
				t.Fatalf("%d connections, %d GETs, %d POSTs, %d idle", r.conns.Load(), r.other.Load(), r.posts.Load(), idleConns(r.tr))
			}
		}},
		{"reply lost after a POST reached the server, not sent again", func(t *testing.T) {
			r := (&faultRig{}).start(t)
			r.ok(t, http.MethodPost)
			r.abort.Store(1)
			if _, err := r.do(t, http.MethodPost, "payload"); err == nil {
				t.Fatal("a POST with no reply succeeded")
			}
			r.count(t, 1, 0, 2, 0)
		}},
		{"reply lost after a GET, sent once more on a new connection", func(t *testing.T) {
			r := (&faultRig{}).start(t)
			r.ok(t, http.MethodGet)
			r.abort.Store(1)
			r.ok(t, http.MethodGet)
			r.count(t, 2, 3, 0, 1)
		}},
		{"every request dropped, a GET on a fresh connection not sent again", func(t *testing.T) {
			// The limit turns an endless resend into a failed count.
			r := (&faultRig{dialLimit: 3}).start(t)
			r.abort.Store(1 << 20)
			if _, err := r.do(t, http.MethodGet, ""); err == nil {
				t.Fatal("a GET with no reply succeeded")
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"reply reset halfway", func(t *testing.T) {
			r := (&faultRig{handler: func(w http.ResponseWriter, _ *http.Request) {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					return
				}
				io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"+strings.Repeat("x", 50))
				conn.(*net.TCPConn).SetLinger(0)
				conn.Close()
			}}).start(t)
			if _, err := r.do(t, http.MethodGet, ""); err == nil {
				t.Fatal("a reset reply read as whole")
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"body shorter than its Content-Length", func(t *testing.T) {
			r := (&faultRig{handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Length", "100")
				io.WriteString(w, strings.Repeat("x", 50))
			}}).start(t)
			if _, err := r.do(t, http.MethodGet, ""); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("short body: %v", err)
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"Connection: close reply not pooled", func(t *testing.T) {
			r := (&faultRig{handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Connection", "close")
				io.WriteString(w, "ok")
			}}).start(t)
			r.ok(t, http.MethodGet)
			r.ok(t, http.MethodGet)
			r.count(t, 2, 2, 0, 0)
		}},
		{"chunked reply past 4 KB read whole", func(t *testing.T) {
			piece := strings.Repeat("0123456789abcdef", 64)
			r := (&faultRig{handler: func(w http.ResponseWriter, _ *http.Request) {
				for i := 0; i < 10; i++ {
					io.WriteString(w, piece)
					w.(http.Flusher).Flush()
				}
			}}).start(t)
			for i := 0; i < 2; i++ {
				rep, err := r.do(t, http.MethodGet, "")
				if err != nil || string(rep.Body) != strings.Repeat(piece, 10) || rep.Header.Get("Content-Length") != "" {
					t.Fatalf("chunked reply: %d bytes, %v, header %v", len(rep.Body), err, rep.Header)
				}
			}
			r.count(t, 1, 2, 0, 1)
		}},
		{"403 before a 4 MB body is read", func(t *testing.T) {
			r := (&faultRig{handler: func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(http.StatusForbidden)
			}}).start(t)
			big := make([]byte, 4<<20)
			open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(big)), nil }
			rep, err := DoStream(r.tr, http.MethodPut, mustParse(t, r.srv.URL), "/x", nil, int64(len(big)), open, 1<<10)
			if err != nil || rep.Status != http.StatusForbidden {
				t.Fatalf("reply %d, %v; want the 403", rep.Status, err)
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"probe of a member that accepts and never answers returns at its deadline", func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					defer conn.Close()
				}
			}()
			tr := NewTransport(nil)
			const timeout = 100 * time.Millisecond
			start := time.Now() // before the deadline is set, so elapsed cannot read short of it
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+ln.Addr().String()+"/api/stats", nil)
			_, err = tr.RoundTrip(req)
			if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed < timeout || elapsed > timeout+5*time.Second {
				t.Fatalf("after %v: %v", elapsed, err)
			}
			if idleConns(tr) != 0 {
				t.Fatal("the probe's connection was pooled")
			}
		}},
		{"event stream closed from another goroutine", func(t *testing.T) {
			// In a bubble over pipes, where every wait is on a channel: a
			// read that Close left blocked deadlocks the bubble, a panic
			// that names it.
			bubble.Test(t, func(t *testing.T) {
				r := &faultRig{}
				root, piped, _ := pipeServer(t, func(w http.ResponseWriter, req *http.Request) {
					if req.Method == http.MethodPost {
						r.posts.Add(1)
					} else {
						r.other.Add(1)
					}
					io.WriteString(w, "event: hello\n\n")
					w.(http.Flusher).Flush()
					<-req.Context().Done()
				})
				r.tr = NewTransport(func(ctx context.Context, network, addr string) (net.Conn, error) {
					r.dials.Add(1)
					return piped.dial(ctx, network, addr)
				})
				t.Cleanup(r.tr.CloseIdleConnections)
				req, _ := http.NewRequest(http.MethodGet, root.String()+"/gram/events", nil)
				resp, err := r.tr.RoundTrip(req)
				if err != nil {
					t.Fatal(err)
				}
				br := bufio.NewReader(resp.Body)
				if line, err := br.ReadString('\n'); err != nil || line != "event: hello\n" {
					t.Fatalf("first line %q, %v", line, err)
				}
				next := make(chan error, 1)
				go func() {
					_, err := br.ReadString('x')
					next <- err
				}()
				resp.Body.Close()
				if err := <-next; err == nil {
					t.Fatal("a read of a closed stream succeeded")
				}
				r.count(t, 1, 1, 0, 0)
			})
		}},
		{"reply head past http.DefaultMaxHeaderBytes refused, connection closed", func(t *testing.T) {
			r := (&faultRig{handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("X-Big", strings.Repeat("x", 2<<20))
				io.WriteString(w, "ok")
			}}).start(t)
			if rep, err := r.do(t, http.MethodGet, ""); err == nil {
				t.Fatalf("a %d-byte X-Big read as a reply head", len(rep.Header.Get("X-Big")))
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"reply cut mid-chunk", func(t *testing.T) {
			r := (&faultRig{handler: rawReply("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n0123", false)}).start(t)
			if _, err := r.do(t, http.MethodGet, ""); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut chunk: %v", err)
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"bad chunk-size line", func(t *testing.T) {
			r := (&faultRig{handler: rawReply("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nok\r\n0\r\n\r\n", false)}).start(t)
			if _, err := r.do(t, http.MethodGet, ""); err == nil {
				t.Fatal("a chunk size of zz read")
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"two differing Content-Lengths refused", func(t *testing.T) {
			r := (&faultRig{handler: rawReply("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok", false)}).start(t)
			if _, err := r.do(t, http.MethodGet, ""); err == nil || !strings.Contains(err.Error(), "Content-Length") {
				t.Fatalf("differing lengths: %v", err)
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"head written one byte per TCP write read whole, connection pooled", func(t *testing.T) {
			r := (&faultRig{handler: rawReply("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Grid-Job: siteA:job-1\r\n\r\nok", true)}).start(t)
			rep, err := r.do(t, http.MethodGet, "")
			if err != nil || string(rep.Body) != "ok" || rep.Header.Get("X-Grid-Job") != "siteA:job-1" {
				t.Fatalf("byte-wise reply: %+v, %v", rep, err)
			}
			r.count(t, 1, 1, 0, 1)
		}},
		{"length-less reply read to close, not pooled", func(t *testing.T) {
			r := (&faultRig{handler: rawReply("HTTP/1.1 200 OK\r\n\r\nread to close", false)}).start(t)
			if rep, err := r.do(t, http.MethodGet, ""); err != nil || string(rep.Body) != "read to close" {
				t.Fatalf("length-less reply: %+v, %v", rep, err)
			}
			r.count(t, 1, 1, 0, 0)
		}},
		{"request of unknown length or with a coding refused, body closed, nothing dialled", func(t *testing.T) {
			r := (&faultRig{}).start(t)
			for field, set := range map[string]func(*http.Request){
				"ContentLength":    func(req *http.Request) { req.ContentLength = -1 },
				"TransferEncoding": func(req *http.Request) { req.TransferEncoding = []string{"chunked"} },
				"Trailer":          func(req *http.Request) { req.Trailer = http.Header{"X-Sum": nil} },
			} {
				var closes atomic.Int32
				req, _ := http.NewRequest(http.MethodPut, r.srv.URL+"/x", nil)
				req.Body, req.ContentLength = closeCounter{strings.NewReader("payload"), &closes}, 7
				set(req)
				if _, err := r.tr.RoundTrip(req); err == nil || !strings.Contains(err.Error(), field) || closes.Load() != 1 {
					t.Errorf("%s: %v, body closed %d times", field, err, closes.Load())
				}
			}
			r.count(t, 0, 0, 0, 0)
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
