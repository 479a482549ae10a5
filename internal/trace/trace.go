// Package trace is a stdlib-only distributed-tracing subsystem for the
// SaaS→JSE pipeline. Every service (portal, onServe core, MyProxy,
// GridFTP, GRAM, the grid simulator) holds a Tracer bound to one shared
// Collector; context crosses process boundaries as the X-Grid-Trace
// header ("<32-hex trace id>-<16-hex span id>"), so one invocation
// yields a single cross-service span tree with timings and byte counts.
//
// Tracing is off by default everywhere. The entire API is nil-safe: a
// nil *Tracer returns nil *Span values, and every Span method no-ops on
// a nil receiver, so instrumented code never branches on "is tracing
// on" and the off path allocates nothing. Span starts deliberately take
// no attribute arguments (attributes are attached via Set/SetInt) so
// the disabled path never builds a varargs slice.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// Header is the HTTP (and SOAP/myproxy) propagation header.
const Header = "X-Grid-Trace"

// SpanContext identifies one span within one trace. The zero value is
// invalid and means "no context": starting a span under it begins a new
// root trace, which is also the mandated degradation for malformed
// headers (parse-before-auth must never reject a request).
type SpanContext struct {
	TraceID [16]byte
	SpanID  [8]byte
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool {
	return sc.TraceID != [16]byte{} && sc.SpanID != [8]byte{}
}

// String renders the wire form "<32 hex>-<16 hex>"; invalid contexts
// render as "".
func (sc SpanContext) String() string {
	if !sc.Valid() {
		return ""
	}
	var buf [49]byte
	hex.Encode(buf[:32], sc.TraceID[:])
	buf[32] = '-'
	hex.Encode(buf[33:], sc.SpanID[:])
	return string(buf[:])
}

// Parse decodes the wire form. It is strict — exactly 32 lowercase-or-
// uppercase hex digits, a dash, 16 more — and total on malformed input:
// anything else returns the zero context and false, never a panic. This
// runs before authentication on every boundary, so "degrade to new root
// trace" is the only acceptable failure mode.
func Parse(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) != 49 || s[32] != '-' {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[:32])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[33:])); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Tracer mints spans for one named service. A nil Tracer is the "off"
// state and mints nil spans.
type Tracer struct {
	service string
	col     *Collector
}

// NewTracer returns a tracer stamping spans with the given service name,
// timing them on the time package's clock, and delivering ended spans to
// col. The second parameter is ignored: cmd/bench, frozen until its next
// revision (ROADMAP item 4(a)), still passes nil there.
func NewTracer(service string, _ any, col *Collector) *Tracer {
	return &Tracer{service: service, col: col}
}

// Collector returns the tracer's span sink (nil on a nil tracer).
func (t *Tracer) Collector() *Collector {
	if t == nil {
		return nil
	}
	return t.col
}

// StartRoot begins a span in a fresh trace.
func (t *Tracer) StartRoot(name string) *Span {
	return t.start(name, SpanContext{}, time.Time{})
}

// StartSpan begins a span under parent; an invalid parent begins a new
// root trace instead (the malformed-header degradation).
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	return t.start(name, parent, time.Time{})
}

// StartSpanAt is StartSpan with an explicit start time, for components
// (the grid simulator's job lifecycle) that record transitions
// retroactively at exact scheduler timestamps.
func (t *Tracer) StartSpanAt(name string, parent SpanContext, at time.Time) *Span {
	return t.start(name, parent, at)
}

func (t *Tracer) start(name string, parent SpanContext, at time.Time) *Span {
	if t == nil {
		return nil
	}
	if at.IsZero() {
		at = time.Now()
	}
	sp := &Span{tracer: t, name: name, start: at}
	if parent.Valid() {
		sp.ctx.TraceID = parent.TraceID
		sp.parent = parent.SpanID
	} else {
		rand.Read(sp.ctx.TraceID[:])
	}
	rand.Read(sp.ctx.SpanID[:])
	return sp
}

// Span is one timed operation. All methods no-op on a nil receiver and
// are safe for concurrent use (a watchdog may error a span while the
// poller annotates it).
type Span struct {
	tracer *Tracer
	ctx    SpanContext
	parent [8]byte
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]string
	err   bool
	msg   string
	ended bool
}

// Context returns the span's context for propagation; the zero (invalid)
// context on a nil span, so chained calls compose.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetInt attaches an integer attribute (byte counts, poll ticks).
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.Set(key, strconv.FormatInt(value, 10))
}

// Error marks the span's status as error with the given message.
func (s *Span) Error(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = true
	s.msg = msg
	s.mu.Unlock()
}

// End closes the span at the tracer's current time and delivers it to
// the collector. A span ended twice is recorded once; a span never
// ended is never recorded.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt is End with an explicit end time.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID:    hex.EncodeToString(s.ctx.TraceID[:]),
		SpanID:     hex.EncodeToString(s.ctx.SpanID[:]),
		Service:    s.tracer.service,
		Name:       s.name,
		Start:      s.start,
		End:        at,
		DurationMS: float64(at.Sub(s.start)) / float64(time.Millisecond),
		Status:     "ok",
		Message:    s.msg,
	}
	if s.parent != [8]byte{} {
		sd.ParentID = hex.EncodeToString(s.parent[:])
	}
	if s.err {
		sd.Status = "error"
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			sd.Attrs[k] = v
		}
	}
	s.mu.Unlock()
	if c := s.tracer.col; c != nil {
		c.add(sd)
	}
}
