package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/vtime"
)

func TestContextRoundTrip(t *testing.T) {
	tr := NewTracer("svc", vtime.Real{}, nil)
	sp := tr.StartRoot("op")
	sc := sp.Context()
	if !sc.Valid() {
		t.Fatal("fresh span has invalid context")
	}
	got, ok := Parse(sc.String())
	if !ok || got != sc {
		t.Fatalf("round trip: %v %v != %v", ok, got, sc)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"abc",
		strings.Repeat("0", 49), // all zero digits, no dash
		strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16), // valid shape, zero ids
		strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16), // non-hex
		strings.Repeat("a", 32) + ":" + strings.Repeat("a", 16), // wrong separator
		strings.Repeat("a", 33) + "-" + strings.Repeat("a", 15), // misplaced dash
		strings.Repeat("a", 32) + "-" + strings.Repeat("a", 17), // too long
	}
	for _, s := range bad {
		if sc, ok := Parse(s); ok || sc.Valid() {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every method must be callable on the nil span.
	sp.Set("k", "v")
	sp.SetInt("n", 42)
	sp.Error("boom")
	sp.End()
	sp.EndAt(time.Now())
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Collector() != nil {
		t.Fatal("nil tracer has a collector")
	}
}

// TestNoAllocationWhenOff pins the off-by-default guarantee: the no-op
// path through span start, annotate, and end allocates nothing.
func TestNoAllocationWhenOff(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartSpan("op", SpanContext{})
		sp.Set("k", "v")
		sp.SetInt("bytes", 4096)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per op", allocs)
	}
}

func TestSpanTreeAssembly(t *testing.T) {
	col := NewCollector(0, 0)
	clk := vtime.NewManual(time.Unix(100, 0))
	tr := NewTracer("svc", clk, col)

	root := tr.StartRoot("invoke")
	root.Set("ticket", "inv-1")
	clk.Advance(time.Second)
	child := tr.StartSpan("stage", root.Context())
	child.SetInt("bytes", 1024)
	clk.Advance(2 * time.Second)
	child.End()
	root.End()

	spans := col.Trace(root.Context().String()[:32])
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "invoke" || spans[0].ParentID != "" {
		t.Fatalf("root wrong: %+v", spans[0])
	}
	if spans[1].Name != "stage" || spans[1].ParentID != spans[0].SpanID {
		t.Fatalf("child not linked: %+v", spans[1])
	}
	if spans[1].DurationMS != 2000 {
		t.Fatalf("child duration %v", spans[1].DurationMS)
	}
	if spans[0].DurationMS != 3000 {
		t.Fatalf("root duration %v", spans[0].DurationMS)
	}
	if spans[1].Attrs["bytes"] != "1024" || spans[0].Attrs["ticket"] != "inv-1" {
		t.Fatalf("attrs lost: %+v %+v", spans[0].Attrs, spans[1].Attrs)
	}
}

// TestTraceOrdersAncestorsFirstAtOneInstant: a span, its child and its
// grandchild start at one instant, and Trace lists each before its
// descendants whatever their random span ids (32 traces).
func TestTraceOrdersAncestorsFirstAtOneInstant(t *testing.T) {
	col := NewCollector(0, 0)
	tr := NewTracer("svc", vtime.NewManual(time.Unix(100, 0)), col)
	for i := 0; i < 32; i++ {
		root := tr.StartRoot("invoke")
		child := tr.StartSpan("stage", root.Context())
		tr.StartSpan("ftp.put", child.Context()).End()
		child.End()
		root.End()
		spans := col.Trace(root.Context().String()[:32])
		if got := spans[0].Name + " " + spans[1].Name + " " + spans[2].Name; got != "invoke stage ftp.put" {
			t.Fatalf("trace %d lists %q, want ancestors first", i, got)
		}
	}
}

func TestErrorStatusAndDoubleEnd(t *testing.T) {
	col := NewCollector(0, 0)
	tr := NewTracer("svc", vtime.Real{}, col)
	sp := tr.StartRoot("op")
	sp.Error("deadline exceeded")
	sp.End()
	sp.End() // second End must not record a duplicate
	spans := col.Trace(sp.Context().String()[:32])
	if len(spans) != 1 {
		t.Fatalf("double end recorded %d spans", len(spans))
	}
	if spans[0].Status != "error" || spans[0].Message != "deadline exceeded" {
		t.Fatalf("status %+v", spans[0])
	}
}

func TestUnendedSpanNotRecorded(t *testing.T) {
	col := NewCollector(0, 0)
	tr := NewTracer("svc", vtime.Real{}, col)
	sp := tr.StartRoot("abandoned")
	if got := col.Trace(sp.Context().String()[:32]); len(got) != 0 {
		t.Fatalf("unended span leaked into the collector: %+v", got)
	}
}

func TestCollectorEntryBound(t *testing.T) {
	col := NewCollector(8, 1<<30)
	tr := NewTracer("svc", vtime.Real{}, col)
	var last *Span
	for i := 0; i < 50; i++ {
		last = tr.StartRoot("op")
		last.End()
	}
	st := col.Stats()
	if st.Spans != 8 || st.Evicted != 42 {
		t.Fatalf("stats %+v", st)
	}
	// The newest span survives, the oldest are gone.
	if got := col.Trace(last.Context().String()[:32]); len(got) != 1 {
		t.Fatalf("newest span evicted: %d", len(got))
	}
}

func TestCollectorByteBound(t *testing.T) {
	col := NewCollector(1<<20, 2048)
	tr := NewTracer("svc", vtime.Real{}, col)
	for i := 0; i < 64; i++ {
		sp := tr.StartRoot("op")
		sp.Set("pad", strings.Repeat("x", 200))
		sp.End()
	}
	st := col.Stats()
	if st.Bytes > 2048 {
		t.Fatalf("byte bound exceeded: %+v", st)
	}
	if st.Evicted == 0 || st.Spans == 0 {
		t.Fatalf("bound never engaged: %+v", st)
	}
}

func TestStartSpanAtAndEndAt(t *testing.T) {
	col := NewCollector(0, 0)
	tr := NewTracer("gridsim", vtime.Real{}, col)
	t0 := time.Unix(500, 0)
	sp := tr.StartSpanAt("job.queue", SpanContext{}, t0)
	sp.EndAt(t0.Add(7 * time.Second))
	spans := col.Trace(sp.Context().String()[:32])
	if len(spans) != 1 || spans[0].DurationMS != 7000 {
		t.Fatalf("retroactive timestamps lost: %+v", spans)
	}
}

// FuzzParse is the X-Grid-Trace codec fuzz target (same rationale as
// gridftp's FuzzFtpPath: the header is decoded before authentication on
// every boundary, so malformed input must degrade to "new root trace" —
// the zero, invalid context — and never panic). Accepted inputs must
// survive a String/Parse round trip.
func FuzzParse(f *testing.F) {
	tr := NewTracer("svc", vtime.Real{}, nil)
	f.Add(tr.StartRoot("x").Context().String())
	f.Add("")
	f.Add(strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16))
	f.Add(strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16))
	f.Add(strings.Repeat("A", 32) + "-" + strings.Repeat("B", 16))
	f.Add(strings.Repeat("a", 49))
	f.Add("deadbeef")
	f.Add("\x00\xff-")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := Parse(s)
		if !ok {
			if sc.Valid() {
				t.Fatalf("Parse(%q) rejected but returned a valid context", s)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("Parse(%q) accepted an invalid context", s)
		}
		back, ok2 := Parse(sc.String())
		if !ok2 || back != sc {
			t.Fatalf("round trip broke for %q: %v %v", s, ok2, back)
		}
		// Starting a span under any accepted context must link to it.
		sp := tr.StartSpan("child", sc)
		if sp.Context().TraceID != sc.TraceID {
			t.Fatalf("child left the trace for %q", s)
		}
	})
}
