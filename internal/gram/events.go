// Long-lived event streams: the push channel the paper's 2010-era
// gatekeepers lacked. GET /gram/events holds one chunked
// text/event-stream connection per session and multiplexes over it every
// job submitted under that session's proxy — state transitions and
// stdout bumps arrive as SSE-style frames the moment the scheduler
// publishes them, small stdout snapshots riding in the frame itself,
// instead of being discovered by status polling and fetched. Reconnects
// resume from a Last-Event-ID cursor; a cursor older than the server's
// retained history yields a "resync" frame telling the client to
// re-fetch authoritative state once.
package gram

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/flatjson"
	"repro/internal/gridsim"
	"repro/internal/trace"
)

// Event frame types on the wire.
const (
	// EventHello is the first frame of every stream; its data carries the
	// negotiated heartbeat interval.
	EventHello = "hello"
	// EventState announces a job lifecycle transition.
	EventState = "state"
	// EventOutput announces a stdout-version bump.
	EventOutput = "output"
	// EventHeartbeat is a keepalive; a client missing several in a row
	// should assume the connection is dead and reconnect.
	EventHeartbeat = "heartbeat"
	// EventResync tells the client its cursor (or buffer) lost events:
	// re-fetch authoritative job state out of band, then keep streaming.
	EventResync = "resync"
)

// DefaultHeartbeatInterval is the idle keepalive cadence.
const DefaultHeartbeatInterval = 5 * time.Second

// maxFrameLine bounds one frame line; longer lines poison the stream.
const maxFrameLine = 64 << 10

// InlineOutputMax is the largest stdout snapshot a frame carries in its
// own data line. JSON escapes a byte into at most six (\u00XX), so 8 KB
// of output is at most 48 KB on the line and the frame's other fields fit
// the remaining quarter of maxFrameLine however hostile the output is.
// Larger snapshots are announced by version only and fetched with the
// conditional GET /gram/output.
const InlineOutputMax = maxFrameLine / 8

// ErrNoEvents reports that the gatekeeper does not implement
// /gram/events (a stock server): callers should fall back to polling.
var ErrNoEvents = errors.New("gram: server does not support event streams")

// EventFrame is one wire frame: an optional cursor ID, an event type,
// and a raw data payload (JSON for hello/state/output, empty for
// heartbeat/resync). The Data of a frame EventStream.Next returned is the
// stream's buffer, valid until the next call of Next.
type EventFrame struct {
	ID    uint64
	Event string
	Data  []byte
}

// EventData is the JSON payload of state/output frames. Output, when
// set, is the job's whole stdout snapshot at OutputVersion: the receiver
// needs no /gram/output fetch for that version. A frame without it (a
// replayed frame, a snapshot over InlineOutputMax, a gatekeeper that
// inlines nothing) only announces the version.
type EventData struct {
	JobID         string `json:"job_id"`
	State         string `json:"state,omitempty"`
	Message       string `json:"message,omitempty"`
	Site          string `json:"site,omitempty"`
	OutputVersion uint64 `json:"output_version,omitempty"`
	Output        string `json:"output,omitempty"`
	AtUnixNano    int64  `json:"at_unix_ns,omitempty"`
}

// DecodeEventData decodes the data of a state or output frame. The object
// a gatekeeper writes (busFrame: the seven members above, each at most
// once, in any order, no white space) is walked by hand, the state names
// the grid uses shared rather than allocated; any other document goes to
// json.Unmarshal, so this accepts, rejects and returns what that does.
func DecodeEventData(data []byte) (EventData, error) {
	var ev EventData
	o := flatjson.Open(data)
	for o.Next() {
		switch string(o.Key()) {
		case "job_id":
			ev.JobID = o.String()
		case "state":
			ev.State = stateName(o.Token())
		case "message":
			ev.Message = o.String()
		case "site":
			ev.Site = o.String()
		case "output_version":
			ev.OutputVersion = o.Uint()
		case "output":
			ev.Output = o.String()
		case "at_unix_ns":
			ev.AtUnixNano = o.Int()
		default:
			o.Fail()
		}
	}
	if o.Done() {
		return ev, nil
	}
	var slow EventData // its own variable, or ev moves to the heap on the fast path too
	err := json.Unmarshal(data, &slow)
	return slow, err
}

// stateName is string(b), shared when b names a job state.
func stateName(b []byte) string {
	for s := gridsim.Queued; s <= gridsim.TimedOut; s++ {
		if name := s.String(); name == string(b) {
			return name
		}
	}
	return string(b)
}

// helloData is the JSON payload of the hello frame.
type helloData struct {
	HeartbeatS int    `json:"heartbeat_s"`
	Session    string `json:"session,omitempty"`
}

// SetHeartbeatInterval overrides the stream keepalive cadence (tests
// and time-dilated rigs); zero or negative restores the default.
func (s *Server) SetHeartbeatInterval(d time.Duration) { s.heartbeat = d }

func (s *Server) heartbeatInterval() time.Duration {
	if s.heartbeat > 0 {
		return s.heartbeat
	}
	return DefaultHeartbeatInterval
}

// events serves GET /gram/events: one long-lived stream carrying every
// transition of the jobs submitted under the proxy that signed this
// request — the feed key is the verified token's leaf fingerprint, the
// same one submit recorded, so a stream hears its own session's jobs and
// no other session's, even of the same identity. The session and cursor
// are parsed before authentication (parse-before-auth: malformed input
// degrades, never crashes); the token is verified over the fixed message
// "events" like the other identity-scoped endpoints, and nothing is
// subscribed before it verifies.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	// Cursor: Last-Event-ID header wins (SSE convention), else the
	// ?since query; malformed values degrade to 0 = full replay.
	cursor, _ := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64)
	if cursor == 0 {
		cursor, _ = strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	}
	id, proxy, err := s.authenticateProxy(r, []byte("events"))
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorReply{Error: "gram: streaming unsupported"})
		return
	}
	sub, replay, resync := s.grid.Events().Subscribe(id, proxy.Fingerprint(), cursor)
	defer s.grid.Events().Unsubscribe(sub)

	hb := s.heartbeatInterval()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	hello, _ := json.Marshal(helloData{HeartbeatS: int(hb / time.Second), Session: session})
	if err := writeEventFrame(w, EventFrame{Event: EventHello, Data: hello}); err != nil {
		return
	}
	if resync {
		if err := writeEventFrame(w, EventFrame{Event: EventResync}); err != nil {
			return
		}
	}
	for _, ev := range replay {
		// Replayed frames announce versions only: a reconnect must not
		// re-ship a snapshot per retained event.
		if err := writeEventFrame(w, busFrame(ev, "")); err != nil {
			return
		}
	}
	flusher.Flush()

	var hbCh <-chan time.Time
	for {
		if hbCh == nil {
			hbCh = s.clock.After(hb)
		}
		select {
		case ev := <-sub.C:
			if err := writeEventFrame(w, s.liveFrame(ev)); err != nil {
				return
			}
			// Drain whatever queued behind it before flushing once.
			for drained := false; !drained; {
				select {
				case ev := <-sub.C:
					if err := writeEventFrame(w, s.liveFrame(ev)); err != nil {
						return
					}
				default:
					drained = true
				}
			}
			flusher.Flush()
		case <-sub.Overflow:
			// The subscriber buffer spilled: the client's view has a gap.
			if err := writeEventFrame(w, EventFrame{Event: EventResync}); err != nil {
				return
			}
			flusher.Flush()
		case <-hbCh:
			hbCh = nil
			if err := writeEventFrame(w, EventFrame{Event: EventHeartbeat}); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// liveFrame is the wire frame of an event as it is published. When the
// event says the job has output, the frame carries the stdout snapshot
// itself, read with its own version as the frame is written — the bus
// retains none of it — provided it fits InlineOutputMax and is valid
// UTF-8 (a JSON string cannot carry other bytes unchanged). An output
// frame saves the receiver its fetch; a terminal state frame carries the
// snapshot again because a receiver that keeps only a job's latest event
// must still end up with the final output.
func (s *Server) liveFrame(ev gridsim.JobEvent) EventFrame {
	if ev.OutputVersion > 0 {
		if job, err := s.grid.Job(ev.JobID); err == nil {
			if out, ver, ok := job.StdoutWithin(InlineOutputMax); ok && utf8.ValidString(out) {
				ev.OutputVersion = ver
				return busFrame(ev, out)
			}
		}
	}
	return busFrame(ev, "")
}

// busFrame converts a bus event to its wire frame, with output (when
// non-empty) as the inline snapshot at ev.OutputVersion.
func busFrame(ev gridsim.JobEvent, output string) EventFrame {
	kind := EventOutput
	if ev.Type == gridsim.EventState {
		kind = EventState
	}
	data, _ := json.Marshal(EventData{
		JobID:         ev.JobID,
		State:         ev.State,
		Message:       ev.Message,
		Site:          ev.Site,
		OutputVersion: ev.OutputVersion,
		Output:        output,
		AtUnixNano:    ev.At.UnixNano(),
	})
	return EventFrame{ID: ev.Seq, Event: kind, Data: data}
}

// writeEventFrame emits one SSE-style frame in a single Write so a
// chunked transfer never splits a frame across a flush boundary.
func writeEventFrame(w io.Writer, f EventFrame) error {
	var buf bytes.Buffer
	if f.ID > 0 {
		fmt.Fprintf(&buf, "id: %d\n", f.ID)
	}
	fmt.Fprintf(&buf, "event: %s\n", f.Event)
	if len(f.Data) > 0 {
		buf.WriteString("data: ")
		buf.Write(f.Data)
		buf.WriteByte('\n')
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// EventStream is one live connection to /gram/events. It is read by one
// goroutine at a time.
type EventStream struct {
	body io.ReadCloser
	br   *bufio.Reader
	// Heartbeat is the server's announced keepalive interval from the
	// hello frame; a reader silent for several multiples of it should
	// treat the stream as dead.
	Heartbeat time.Duration

	long []byte // a line longer than br's buffer is put together here
	data []byte // the last frame's data field
}

// Next blocks for the next frame. The frame's Data is the stream's own
// buffer: it is valid until the next call of Next, so a caller that keeps
// a frame copies it. Unknown fields and comment lines (":") are skipped
// per the SSE contract; a malformed id degrades to 0. Any error (an
// oversized line, a truncated stream) means the stream is unusable: close
// it and reconnect from the last good cursor.
func (es *EventStream) Next() (EventFrame, error) {
	var f EventFrame
	seen := false
	for {
		line, err := es.readLine()
		if err != nil {
			return EventFrame{}, err
		}
		if len(line) == 0 {
			if seen {
				return f, nil
			}
			continue // leading blank lines between frames
		}
		seen = true
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "id":
			f.ID, _ = strconv.ParseUint(string(value), 10, 64)
		case "event":
			f.Event = eventName(value)
		case "data":
			es.data = append(es.data[:0], value...)
			f.Data = es.data
		}
	}
}

// eventName is string(b) without the allocation for the five names a
// gatekeeper sends.
func eventName(b []byte) string {
	for _, name := range [...]string{EventState, EventOutput, EventHeartbeat, EventResync, EventHello} {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}

// readLine returns the next line without its "\n" or "\r\n", valid until
// the next read, and rejects one longer than maxFrameLine. A line that
// fits the reader's buffer is a slice of it; a longer one is put together
// in the stream's own buffer.
func (es *EventStream) readLine() ([]byte, error) {
	line, err := es.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		es.long = es.long[:0]
		// Two over the limit is over it with the line ending taken off.
		for err == bufio.ErrBufferFull && len(es.long) <= maxFrameLine+2 {
			es.long = append(es.long, line...)
			line, err = es.br.ReadSlice('\n')
		}
		es.long = append(es.long, line...)
		line = es.long
	}
	if err != nil && err != bufio.ErrBufferFull {
		return nil, err // a line the stream ends in the middle of is no line
	}
	line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
	if len(line) > maxFrameLine {
		return nil, fmt.Errorf("%w: frame line over %d bytes", ErrBadInput, maxFrameLine)
	}
	return line, nil
}

// Close tears the stream down; it is safe to call concurrently with
// Next (closing the body unblocks the pending read).
func (es *EventStream) Close() error { return es.body.Close() }

// Events opens the session's event stream, resuming after cursor since
// (0 = from the beginning of retained history). A stock gatekeeper
// without the endpoint yields ErrNoEvents so callers can fall back to
// polling. The first frame (consumed here) must be a hello carrying the
// heartbeat interval.
func (c *Client) Events(session string, since uint64) (*EventStream, error) {
	tok, err := c.sign([]byte("events"))
	if err != nil {
		return nil, err
	}
	u := c.BaseURL + "/gram/events?session=" + url.QueryEscape(session)
	if since > 0 {
		u += "&since=" + strconv.FormatUint(since, 10)
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(TokenHeader, tok)
	if since > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(since, 10))
	}
	if c.Trace != "" {
		req.Header.Set(trace.Header, c.Trace)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("gram: /gram/events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, MaxBody))
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("%w: http 404", ErrNoEvents)
		}
		return nil, decodeError(resp.StatusCode, body)
	}
	es := &EventStream{body: resp.Body, br: bufio.NewReader(resp.Body)}
	first, err := es.Next()
	if err != nil {
		es.Close()
		return nil, fmt.Errorf("gram: event stream handshake: %w", err)
	}
	if first.Event != EventHello {
		es.Close()
		return nil, fmt.Errorf("%w: first frame %q, want hello", ErrBadInput, first.Event)
	}
	var h helloData
	if err := json.Unmarshal(first.Data, &h); err != nil || h.HeartbeatS <= 0 {
		es.Close()
		return nil, fmt.Errorf("%w: bad hello frame", ErrBadInput)
	}
	es.Heartbeat = time.Duration(h.HeartbeatS) * time.Second
	return es, nil
}
