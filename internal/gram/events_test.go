package gram

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/xsec"
)

// readUntilState drains frames until one announces jobID in state want,
// returning every frame read (including the matching one).
func readUntilState(t *testing.T, es *EventStream, jobID, want string) []EventFrame {
	t.Helper()
	var frames []EventFrame
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		f, err := es.Next()
		if err != nil {
			t.Fatalf("stream died after %d frames: %v", len(frames), err)
		}
		f.Data = bytes.Clone(f.Data) // the stream's buffer until the next Next
		frames = append(frames, f)
		if f.Event != EventState {
			continue
		}
		d := decodeEventData(t, f)
		if d.JobID == jobID && d.State == want {
			return frames
		}
	}
	t.Fatalf("no %s frame for %s in %d frames", want, jobID, len(frames))
	return nil
}

func decodeEventData(t *testing.T, f EventFrame) EventData {
	t.Helper()
	var d EventData
	if err := json.Unmarshal(f.Data, &d); err != nil {
		t.Fatalf("frame %+v: %v", f, err)
	}
	return d
}

func TestEventStreamCarriesJobLifecycle(t *testing.T) {
	f := newFixture(t)
	// One virtual hour between keepalives: the lifecycle frames arrive
	// long before the first heartbeat.
	f.srv.heartbeat = time.Hour
	es, err := f.client.Events("sess-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	if es.Heartbeat != time.Hour {
		t.Fatalf("negotiated heartbeat %v", es.Heartbeat)
	}
	id, err := f.client.Submit(f.desc("hello.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	frames := readUntilState(t, es, id, "DONE")
	job, _ := f.grid.Job(id)
	_, started, ended := job.Times()
	stamps := map[string]time.Time{"RUNNING": started, "DONE": ended}
	var sawRunning, sawOutput bool
	var lastID uint64
	for _, fr := range frames {
		if fr.ID > 0 {
			if fr.ID <= lastID {
				t.Fatalf("frame IDs not monotonic: %d after %d", fr.ID, lastID)
			}
			lastID = fr.ID
		}
		switch fr.Event {
		case EventState:
			d := decodeEventData(t, fr)
			if d.JobID == id && d.State == "RUNNING" {
				sawRunning = true
			}
			// The stamp is the transition's instant, the Unix epoch included.
			if at, ok := stamps[d.State]; d.Site != "siteA" || ok && d.AtUnixNano != at.UnixNano() {
				t.Fatalf("state frame %+v, want site siteA stamped %d", d, at.UnixNano())
			}
		case EventOutput:
			d := decodeEventData(t, fr)
			if d.JobID == id && d.OutputVersion > 0 {
				sawOutput = true
			}
		}
	}
	if !sawRunning || !sawOutput {
		t.Fatalf("lifecycle incomplete: running=%v output=%v", sawRunning, sawOutput)
	}
	// The terminal frame's version matches the authoritative snapshot.
	last := decodeEventData(t, frames[len(frames)-1])
	_, ver, _, err := f.client.OutputIfChanged(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last.OutputVersion != ver {
		t.Fatalf("terminal frame version %d, ETag version %d", last.OutputVersion, ver)
	}
}

func TestEventStreamCursorResume(t *testing.T) {
	f := newFixture(t)
	f.srv.heartbeat = time.Hour
	es, err := f.client.Events("sess-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := f.client.Submit(f.desc("hello.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	frames := readUntilState(t, es, id1, "DONE")
	cursor := frames[len(frames)-1].ID
	es.Close()

	// Everything after the cursor belongs to the second job only.
	id2, err := f.client.Submit(f.desc("writer.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.WaitTerminal(id2, f.clock, time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	es2, err := f.client.Events("sess-1", cursor)
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	for _, fr := range readUntilState(t, es2, id2, "DONE") {
		if fr.Event == EventResync {
			t.Fatal("in-window cursor forced a resync")
		}
		if fr.ID > 0 && fr.ID <= cursor {
			t.Fatalf("replayed frame %d at or before cursor %d", fr.ID, cursor)
		}
		if fr.Event == EventState || fr.Event == EventOutput {
			if d := decodeEventData(t, fr); d.JobID == id1 {
				t.Fatalf("job 1 frame replayed past its cursor: %+v", d)
			}
		}
	}
}

func TestEventStreamBogusCursorTriggersResync(t *testing.T) {
	f := newFixture(t)
	f.srv.heartbeat = time.Hour
	// A cursor beyond anything the bus ever issued (e.g. from a previous
	// grid incarnation) cannot be resumed: the first frame after hello
	// must order a resync.
	es, err := f.client.Events("sess-1", 999999)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	fr, err := es.Next()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Event != EventResync {
		t.Fatalf("first frame %q, want resync", fr.Event)
	}
}

func TestEventStreamCrossOwnerIsolation(t *testing.T) {
	f := newFixture(t)
	// Short heartbeat: bob's otherwise-idle stream yields keepalives that
	// bound the test, and any misrouted alice frame would arrive first.
	f.srv.heartbeat = 2 * time.Second
	es, err := f.other.Events("bob-sess", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	id, err := f.client.Submit(f.desc("hello.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.WaitTerminal(id, f.clock, time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	heartbeats := 0
	for heartbeats < 3 {
		fr, err := es.Next()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Event == EventState || fr.Event == EventOutput {
			t.Fatalf("bob's stream carried alice's frame: %+v", fr)
		}
		if fr.Event == EventHeartbeat {
			heartbeats++
		}
	}
}

// proxyClients returns two gatekeeper clients holding two separately
// delegated proxies of alice — two agent sessions of one identity.
func proxyClients(t *testing.T, f *fixture) (a, b *Client) {
	t.Helper()
	mk := func() *Client {
		proxy, err := f.client.Cred.Delegate(f.clock.Now(), 12*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return &Client{BaseURL: f.client.BaseURL, Cred: proxy, Transport: f.client.Transport}
	}
	return mk(), mk()
}

// TestEventStreamProxyIsolation: a stream carries the jobs submitted
// under its own proxy only. Session B of the same identity may poll and
// fetch session A's job (it owns it), but neither replay nor live frames
// of it reach B's stream.
func TestEventStreamProxyIsolation(t *testing.T) {
	f := newFixture(t)
	f.srv.heartbeat = 2 * time.Second
	a, b := proxyClients(t, f)
	early, err := a.Submit(f.desc("hello.gsh")) // replay material
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitTerminal(early, f.clock, time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	esB, err := b.Events("sess-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer esB.Close()
	esA, err := a.Events("sess-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer esA.Close()
	live, err := a.Submit(f.desc("hello.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	// A's own stream carries both jobs to the end.
	readUntilState(t, esA, live, "DONE")
	if out, err := b.Output(live); err != nil || out != "hello\n" {
		t.Fatalf("same identity, other proxy: output %q, %v", out, err)
	}
	for heartbeats := 0; heartbeats < 3; {
		fr, err := esB.Next()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Event == EventState || fr.Event == EventOutput {
			t.Fatalf("session B's stream carried session A's frame: %+v %s", fr, fr.Data)
		}
		if fr.Event == EventHeartbeat {
			heartbeats++
		}
	}
}

// TestEventFramesCarryOutputInline pins the frame schema: live output
// frames and the terminal state frame carry the stdout snapshot with its
// own version; replayed frames and snapshots over InlineOutputMax
// announce the version only.
func TestEventFramesCarryOutputInline(t *testing.T) {
	f := newFixture(t)
	f.srv.heartbeat = time.Hour
	siteA, _ := f.grid.Site("siteA")
	big := strings.Repeat("x", InlineOutputMax/2)
	siteA.Store().Put(f.alice, "grow.gsh", []byte("emit 10m 3 "+big+"\n"))
	es, err := f.client.Events("sess-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	id, err := f.client.Submit(f.desc("hello.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	var cursor uint64
	for _, fr := range readUntilState(t, es, id, "DONE") {
		if fr.Event != EventState && fr.Event != EventOutput {
			continue
		}
		cursor = fr.ID
		d := decodeEventData(t, fr)
		switch {
		case d.State == "RUNNING":
			if d.Output != "" || d.OutputVersion != 0 {
				t.Fatalf("RUNNING frame carries output: %+v", d)
			}
		default: // the output bump and DONE
			if d.Output != "hello\n" || d.OutputVersion != 1 {
				t.Fatalf("%s frame: output %q v%d", fr.Event, d.Output, d.OutputVersion)
			}
		}
	}

	// Three bumps of 4 KB + newline: the first fits, the rest do not, and
	// the terminal frame of a 12 KB output is bare.
	id, err = f.client.Submit(f.desc("grow.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	inlined := 0
	frames := readUntilState(t, es, id, "DONE")
	for _, fr := range frames {
		if fr.Event != EventState && fr.Event != EventOutput {
			continue
		}
		d := decodeEventData(t, fr)
		if d.Output != "" {
			inlined++
			if len(d.Output) > InlineOutputMax || d.OutputVersion == 0 {
				t.Fatalf("inlined %d bytes at v%d", len(d.Output), d.OutputVersion)
			}
		}
	}
	if last := decodeEventData(t, frames[len(frames)-1]); last.Output != "" || last.OutputVersion != 3 {
		t.Fatalf("terminal frame of an oversized output: %d bytes inline, v%d", len(last.Output), last.OutputVersion)
	}
	if inlined != 1 {
		t.Fatalf("%d frames inlined a snapshot, want the first bump only", inlined)
	}

	// A reconnect replays what it missed without payload.
	es2, err := f.client.Events("sess-1", cursor)
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	for _, fr := range readUntilState(t, es2, id, "DONE") {
		if fr.Event != EventState && fr.Event != EventOutput {
			continue
		}
		if d := decodeEventData(t, fr); d.Output != "" {
			t.Fatalf("replayed frame carries %d bytes of output", len(d.Output))
		}
	}
}

// TestInlineOutputFitsAFrame: the worst case JSON makes of
// InlineOutputMax bytes still fits one frame line, and output a JSON
// string cannot carry unchanged is never inlined.
func TestInlineOutputFitsAFrame(t *testing.T) {
	f := newFixture(t)
	id, err := f.client.Submit(f.desc("hello.gsh"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.WaitTerminal(id, f.clock, time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	ev := gridsim.JobEvent{Seq: 1<<64 - 1, Type: gridsim.EventState, JobID: id, Owner: f.alice,
		State: "DONE", Message: strings.Repeat("m", 256), Site: "siteA", OutputVersion: 1<<64 - 1, At: f.clock.Now()}
	var buf bytes.Buffer
	// 0x01 escapes to \u0001: six bytes for one.
	if err := writeEventFrame(&buf, busFrame(ev, strings.Repeat("\x01", InlineOutputMax))); err != nil {
		t.Fatal(err)
	}
	fr, err := readEventFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("worst-case inline frame does not parse: %v", err)
	}
	if d := decodeEventData(t, fr); len(d.Output) != InlineOutputMax {
		t.Fatalf("round trip kept %d of %d bytes", len(d.Output), InlineOutputMax)
	}
	job, _ := f.grid.Job(id)
	ev.OutputVersion = job.StdoutVersion()
	if d := decodeEventData(t, f.srv.liveFrame(ev)); d.Output != "hello\n" {
		t.Fatalf("valid output not inlined: %+v", d)
	}

	// Bytes that are not UTF-8 would come out of a JSON string as U+FFFD:
	// they stay on the byte-exact GET.
	siteA, _ := f.grid.Site("siteA")
	siteA.Store().Put(f.alice, "raw.gsh", []byte("echo \xff\xfe\n"))
	if id, err = f.client.Submit(f.desc("raw.gsh")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.WaitTerminal(id, f.clock, time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	ev.JobID, ev.OutputVersion = id, 1
	if d := decodeEventData(t, f.srv.liveFrame(ev)); d.Output != "" || d.OutputVersion != 1 {
		t.Fatalf("non-UTF-8 output inlined: %+v", d)
	}
	if out, err := f.client.Output(id); err != nil || out != "\xff\xfe\n" {
		t.Fatalf("fetched %q, %v", out, err)
	}
}

func TestEventStreamRequiresAuthentication(t *testing.T) {
	f := newFixture(t)
	bare := &Client{BaseURL: f.client.BaseURL, Cred: &xsec.Credential{}, Transport: f.client.Transport}
	if _, err := bare.Events("s", 0); err == nil {
		t.Fatal("credential-less stream accepted")
	}
	// A token signed over the wrong message is rejected too: replaying a
	// status-endpoint token against /gram/events must fail.
	tok, err := f.client.sign([]byte("status"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, f.client.BaseURL+"/gram/events?session=s", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TokenHeader, tok)
	resp, err := hop.RoundTrip(f.client.Transport, req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-endpoint token replay: status %d", resp.StatusCode)
	}
}

func TestEventsAgainstStockServer(t *testing.T) {
	// A gatekeeper without the endpoint answers 404: the client maps that
	// to ErrNoEvents so collectors fall back to polling.
	hs := httptest.NewServer(http.NotFoundHandler())
	defer hs.Close()
	f := newFixture(t)
	stock := &Client{BaseURL: hs.URL, Cred: f.client.Cred}
	if _, err := stock.Events("s", 0); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("got %v, want ErrNoEvents", err)
	}
}

func TestEventFrameRoundTrip(t *testing.T) {
	cases := []EventFrame{
		{Event: EventHeartbeat},
		{Event: EventResync},
		{ID: 1, Event: EventState, Data: []byte(`{"job_id":"siteA:job-1","state":"DONE"}`)},
		{ID: 18446744073709551615, Event: EventOutput, Data: []byte(`{"job_id":"x","output_version":7}`)},
		{Event: "hello", Data: []byte(`{"heartbeat_s":5}`)},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := writeEventFrame(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := readEventFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("frame %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Event != want.Event || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round trip: %+v -> %+v", want, got)
		}
	}
}

func TestEventFrameParserTolerance(t *testing.T) {
	// Comments, unknown fields, malformed IDs and leading blank lines are
	// all skipped per the SSE contract — the frame still parses.
	raw := "\n: a comment\nretry: 3000\nid: not-a-number\nevent: state\ndata: {\"job_id\":\"j\"}\n\n"
	fr, err := readEventFrame(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if fr.ID != 0 || fr.Event != "state" || string(fr.Data) != `{"job_id":"j"}` {
		t.Fatalf("frame %+v", fr)
	}
	// Truncation mid-frame is an error, never a partial frame.
	if _, err := readEventFrame(bufio.NewReader(strings.NewReader("event: state\n"))); err == nil {
		t.Fatal("truncated frame parsed")
	}
	// An oversized line poisons the stream.
	long := "data: " + strings.Repeat("x", maxFrameLine+1) + "\n\n"
	if _, err := readEventFrame(bufio.NewReader(strings.NewReader(long))); !errors.Is(err, ErrBadInput) {
		t.Fatalf("oversized line: %v", err)
	}
}

// FuzzEventFrame feeds arbitrary bytes to the frame parser: it must
// never panic, and any frame it accepts must survive a
// serialize-reparse round trip (the degradation path for garbage is an
// error that makes the client reconnect and resync — not a wedge).
func FuzzEventFrame(f *testing.F) {
	f.Add([]byte("id: 12\nevent: state\ndata: {\"job_id\":\"siteA:job-1\",\"state\":\"DONE\"}\n\n"))
	f.Add([]byte("event: heartbeat\n\n"))
	f.Add([]byte("event: resync\n\n"))
	f.Add([]byte(": comment\nid: 99999999999999999999\nevent: output\n\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("data only, no colon\n\n"))
	f.Add([]byte("id: 3\nid: 4\ndata: a\ndata: b\nevent: x\n\n"))
	// Frames with an inline snapshot — the collector stores these bytes:
	// a plain one, one whose escapes decode to control bytes and invalid
	// UTF-8 surrogates, one over InlineOutputMax, and one whose version is
	// behind any cursor (0) yet carries output.
	f.Add([]byte("id: 7\nevent: output\ndata: {\"job_id\":\"siteA:job-1\",\"output_version\":2,\"output\":\"a\\nb\\n\"}\n\n"))
	f.Add([]byte("id: 8\nevent: state\ndata: {\"job_id\":\"j\",\"state\":\"DONE\",\"output_version\":1,\"output\":\"\\u0000\\ud800\\u2028\"}\n\n"))
	f.Add([]byte("id: 9\nevent: output\ndata: {\"job_id\":\"j\",\"output_version\":3,\"output\":\"" + strings.Repeat("x", InlineOutputMax+1) + "\"}\n\n"))
	f.Add([]byte("id: 10\nevent: output\ndata: {\"job_id\":\"j\",\"output\":\"stale\"}\n\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := readEventFrame(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			return // reconnect-and-resync path; only panics are bugs
		}
		// What the collector does with a state/output frame: decoding may
		// fail (it then resyncs), it must not panic.
		var d EventData
		_ = json.Unmarshal(fr.Data, &d)
		var buf bytes.Buffer
		if err := writeEventFrame(&buf, fr); err != nil {
			t.Fatalf("serialize parsed frame %+v: %v", fr, err)
		}
		again, err := readEventFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("reparse %q: %v", buf.String(), err)
		}
		if again.ID != fr.ID || again.Event != fr.Event || !bytes.Equal(again.Data, fr.Data) {
			t.Fatalf("round trip drifted: %+v -> %+v", fr, again)
		}
	})
}
