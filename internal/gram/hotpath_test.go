package gram

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/hop/hoptest"
	"repro/internal/jsdl"
	"repro/internal/sizedio"
	"repro/internal/trace"
)

// readEventFrame reads the first frame of a stream the way Next does.
func readEventFrame(br *bufio.Reader) (EventFrame, error) {
	return (&EventStream{br: br}).Next()
}

// wireFrames renders events as a gatekeeper would write them live.
func wireFrames(t testing.TB, frames ...EventFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fr := range frames {
		if err := writeEventFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// hotOpFrames are the three frames of a hot invocation: ACTIVE, the
// output bump, DONE with the snapshot again.
func hotOpFrames(output string) []EventFrame {
	at := t0.Add(time.Second)
	ev := gridsim.JobEvent{Seq: 41, Type: gridsim.EventState, JobID: "siteA:job-17", State: "RUNNING", Site: "siteA", At: at}
	running := busFrame(ev, "")
	ev.Seq, ev.Type, ev.State, ev.OutputVersion = 42, gridsim.EventOutput, "", 1
	out := busFrame(ev, output)
	ev.Seq, ev.Type, ev.State = 43, gridsim.EventState, "DONE"
	return []EventFrame{running, out, busFrame(ev, output)}
}

func TestFrameAfterLongLineIsIntact(t *testing.T) {
	long := `{"job_id":"j","output_version":2,"output":"` + strings.Repeat("x", 60<<10) + `"}`
	next := hotOpFrames("hello\n")[2]
	es := &EventStream{br: bufio.NewReader(bytes.NewReader(wireFrames(t,
		EventFrame{ID: 1, Event: EventOutput, Data: []byte(long)}, next,
		EventFrame{Event: EventHeartbeat})))}
	first, err := es.Next()
	if err != nil || string(first.Data) != long {
		t.Fatalf("60 KB frame: %d bytes, %v", len(first.Data), err)
	}
	second, err := es.Next()
	if err != nil || second.ID != next.ID || second.Event != EventState || !bytes.Equal(second.Data, next.Data) {
		t.Fatalf("frame after the long one: %+v, %v", second, err)
	}
	// Data is the stream's buffer: the next frame took it over.
	if third, err := es.Next(); err != nil || third.Event != EventHeartbeat || len(third.Data) != 0 {
		t.Fatalf("third frame %+v, %v", third, err)
	}
	for _, raw := range []string{"event: state\r\ndata: {}\r\n\r\n", "event: state\ndata: {}\n\n"} {
		fr, err := readEventFrame(bufio.NewReaderSize(strings.NewReader(raw), 16))
		if err != nil || fr.Event != EventState || string(fr.Data) != "{}" {
			t.Fatalf("%q: %+v, %v", raw, fr, err)
		}
	}
}

// FuzzEventData holds the hand-written walk to encoding/json: the same
// struct and the same verdict for any bytes.
func FuzzEventData(f *testing.F) {
	for _, out := range []string{"", "hello\n", "say \"hi\" <b>&amp;</b>\n", "line\u2028sep\u2029 ünï©ödé 日本語 \U0001F600\t\x00\x1f"} {
		for _, fr := range hotOpFrames(out) {
			f.Add(fr.Data)
		}
	}
	ev := gridsim.JobEvent{Seq: 1, Type: gridsim.EventState, JobID: "a:b", State: "FAILED", Message: "exit 3: \\ / \b\f\r", OutputVersion: 1<<64 - 1, At: time.Unix(0, -5)}
	f.Add(busFrame(ev, "x").Data)
	for _, doc := range []string{
		`{}`, `{"job_id":"j"}` + "\n", ` {"job_id":"j"}`, `{"job_id":"j","job_id":"k"}`, `{"JOB_ID":"j"}`,
		`{"job_id":"j","extra":1}`, `{"job_id":null}`, `{"job_id":"\ud83d\ude00"}`, `{"job_id":"\ud800"}`,
		`{"job_id":"a\u00e9\u0041\/"}`, `{"job_id":"\x"}`, `{"job_id":"\u12"}`, "{\"job_id\":\"\xff\"}", "{\"job_id\":\"a\nb\"}",
		`{"output_version":01}`, `{"output_version":-1}`, `{"output_version":1.0}`, `{"output_version":1e3}`,
		`{"output_version":18446744073709551615}`, `{"output_version":18446744073709551616}`, `{"output_version":"1"}`,
		`{"at_unix_ns":-0}`, `{"at_unix_ns":-9223372036854775808}`, `{"at_unix_ns":9223372036854775808}`, `{"at_unix_ns":-}`,
		`{"state":"D\u004fNE"}`, `{"state":"DONE",}`, `{"state":"DONE"}}`, `{"state":"DONE"`, `["state"]`, `{"state"}`, `{,}`, ``,
		`{"job_id":"j"}` + "\n\n", `{"job_id":"j\`, `{"job_id":"j\"`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want EventData
		wantErr := json.Unmarshal(data, &want)
		held := strings.Clone(want.JobID) // a collector's copy of the ID
		for _, known := range []func([]byte) string{nil, func(id []byte) string {
			if string(id) == held {
				return held
			}
			return ""
		}} {
			got, gotErr := DecodeEventData(data, known)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: walk says %v, encoding/json says %v", data, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%q:\nwalk          %+v\nencoding/json %+v", data, got, want)
			}
		}
	})
}

// canned answers every request with one fixed reply and no server
// goroutine, and records what it was sent.
type canned struct {
	status int
	header http.Header
	body   string
	reqs   []*http.Request
	bodies [][]byte
}

func (c *canned) RoundTrip(req *http.Request) (*http.Response, error) {
	var sent []byte
	if req.Body != nil {
		sent, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	c.reqs = append(c.reqs, req)
	c.bodies = append(c.bodies, sent)
	return &http.Response{StatusCode: c.status, Header: c.header, ContentLength: int64(len(c.body)),
		Body: io.NopCloser(strings.NewReader(c.body))}, nil
}

func TestSubmitAllocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		c := &Client{BaseURL: "http://gatekeeper.invalid:2119", Cred: f.client.Cred,
			Transport: &canned{status: http.StatusOK, body: `{"job_id":"siteA:job-17"}` + "\n"}}
		desc := f.desc("hello.gsh")
		if id, err := c.Submit(desc); err != nil || id != "siteA:job-17" {
			t.Fatalf("submit: %q, %v", id, err)
		}
		rt := c.Transport.(*canned)
		allocs := testing.AllocsPerRun(200, func() {
			rt.reqs, rt.bodies = rt.reqs[:0], rt.bodies[:0]
			if _, err := c.Submit(desc); err != nil {
				t.Fatal(err)
			}
		})
		// The canned transport's own reply and its read of the body are in the
		// count (7 objects); what is Submit's is the document, the token, the
		// request and the job ID.
		t.Logf("Submit: %.0f objects", allocs)
		if allocs > 15 {
			t.Fatalf("Submit allocates %.0f objects, want <= 15", allocs)
		}
	})
}

func TestHotOpFrameDecodeAllocations(t *testing.T) {
	wire := wireFrames(t, hotOpFrames("hello\n")...)
	src := bytes.NewReader(wire)
	es := &EventStream{br: bufio.NewReader(src)}
	held := "siteA:job-17" // the collector's copy of the job's ID
	known := func(id []byte) string {
		if string(id) == held {
			return held
		}
		return ""
	}
	read := func() {
		src.Reset(wire)
		es.br.Reset(src)
		for i := 0; i < 3; i++ {
			fr, err := es.Next()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := DecodeEventData(fr.Data, known)
			if err != nil || ev.JobID != "siteA:job-17" || ev.Site != "siteA" {
				t.Fatalf("frame %d: %+v, %v", i, ev, err)
			}
			if i == 2 && (ev.State != "DONE" || ev.Output != "hello\n" || ev.OutputVersion != 1) {
				t.Fatalf("terminal frame %+v", ev)
			}
		}
	}
	read() // the stream's buffers grow to the frame size once
	allocs := testing.AllocsPerRun(200, read)
	// The two inline output snapshots: the job ID and site are the
	// collector's.
	t.Logf("three frames: %.0f objects", allocs)
	if allocs > 2 {
		t.Fatalf("three frames of a hot op cost %.0f objects, want <= 2", allocs)
	}
}

// TestWireUnchanged pins what Submit, StatusBatch and a job call put on
// the wire: method, URL, header set and body, as http.NewRequest and
// Client.Do sent them.
func TestWireUnchanged(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		rt := &canned{status: http.StatusOK, body: `{"job_id":"siteA:job-1"}`}
		c := &Client{BaseURL: "http://gk.invalid:2119/root", Cred: f.client.Cred, Transport: rt}
		desc := f.desc("hello.gsh")
		doc, _ := jsdl.Marshal(desc)

		if _, err := c.Submit(desc); err != nil {
			t.Fatal(err)
		}
		rt.body = `{"entries":[{"job_id":"a"},{"job_id":"b c"}]}`
		if _, err := c.StatusBatch([]string{"a", "b c"}); err != nil {
			t.Fatal(err)
		}
		c.Trace = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
		rt.status, rt.header = http.StatusNotModified, http.Header{"Etag": {`"v7"`}}
		if _, v, changed, err := c.OutputIfChanged("site A:job&1", 7); err != nil || changed || v != 7 {
			t.Fatalf("conditional fetch: v%d changed=%v %v", v, changed, err)
		}

		want := []struct {
			method, url string
			header      map[string]string
			body        string
			signed      string
		}{
			{"POST", "http://gk.invalid:2119/root/gram/submit", map[string]string{"Content-Type": "text/xml"}, string(doc), string(doc)},
			{"POST", "http://gk.invalid:2119/root/gram/status-batch", map[string]string{"Content-Type": "application/json"}, `{"jobs":["a","b c"]}`, `{"jobs":["a","b c"]}`},
			{"GET", "http://gk.invalid:2119/root/gram/output?job=site+A:job%261", map[string]string{"If-None-Match": `"v7"`, trace.Header: c.Trace}, "", "job:site A:job&1"},
		}
		if len(rt.reqs) != len(want) {
			t.Fatalf("%d requests, want %d", len(rt.reqs), len(want))
		}
		for i, w := range want {
			req := rt.reqs[i]
			if req.Method != w.method || req.URL.String() != w.url || req.Host != "gk.invalid:2119" {
				t.Errorf("request %d: %s %s (host %s), want %s %s", i, req.Method, req.URL, req.Host, w.method, w.url)
			}
			if string(rt.bodies[i]) != w.body || req.ContentLength != int64(len(w.body)) {
				t.Errorf("request %d: body %q (declared %d), want %q", i, rt.bodies[i], req.ContentLength, w.body)
			}
			got := map[string]string{}
			for k, vs := range req.Header {
				if len(vs) != 1 {
					t.Errorf("request %d: header %s has %d values", i, k, len(vs))
				}
				got[k] = vs[0]
			}
			tok := got[TokenHeader]
			delete(got, TokenHeader)
			if !reflect.DeepEqual(got, w.header) {
				t.Errorf("request %d: headers %v, want %v plus the token", i, got, w.header)
			}
			if id, err := f.srv.authenticate(&http.Request{Header: http.Header{TokenHeader: {tok}}}, []byte(w.signed)); err != nil || id != f.alice {
				t.Errorf("request %d: token does not verify over %q: %v", i, w.signed, err)
			}
			// A body can be replayed, which is what lets the transport retry a
			// request that met a dead keep-alive connection.
			if w.body != "" {
				if req.GetBody == nil {
					t.Fatalf("request %d: no GetBody", i)
				}
				again, _ := req.GetBody()
				if b, _ := io.ReadAll(again); string(b) != w.body {
					t.Errorf("request %d: replayed body %q", i, b)
				}
			} else if req.Body != nil {
				t.Errorf("request %d: a body on a bodyless call", i)
			}
		}
	})
}

// TestDroppedKeepAliveIsRetried: the transport retries a POST that met a
// dead pooled connection only when it can replay the body (GetBody), and
// the second submit below meets exactly that.
func TestDroppedKeepAliveIsRetried(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		var armed atomic.Bool
		var dials atomic.Int32
		tr := hop.NewTransport(func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			conn, err := f.net.DialContext(ctx, network, addr)
			return hoptest.DeadOnReuse{Conn: conn, Armed: &armed}, err
		})
		defer tr.CloseIdleConnections()
		c := &Client{BaseURL: f.client.BaseURL, Cred: f.client.Cred, Transport: tr}
		if _, err := c.Submit(f.desc("hello.gsh")); err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		if _, err := c.Submit(f.desc("hello.gsh")); err != nil {
			t.Fatalf("submit over a dead pooled connection: %v", err)
		}
		if armed.Load() || dials.Load() != 2 {
			t.Fatalf("the pooled connection was not reused and redialled: armed=%v dials=%d", armed.Load(), dials.Load())
		}
	})
}

func TestOversizedReplyIsAnError(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t)
		rt := &canned{status: http.StatusOK, body: `{"job_id":"` + strings.Repeat("x", MaxBody) + `"}`}
		c := &Client{BaseURL: "http://gk.invalid", Cred: f.client.Cred, Transport: rt}
		if _, err := c.Submit(f.desc("hello.gsh")); !errors.Is(err, sizedio.ErrTooLarge) {
			t.Fatalf("oversized reply: %v", err)
		}
	})
}
