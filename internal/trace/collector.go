package trace

import (
	"sort"
	"sync"
	"time"
)

// Default collector bounds. The ring is bounded twice — by entry count
// and by estimated payload bytes — mirroring core.Config's
// InvocationRetention: sustained traffic evicts the oldest spans instead
// of growing the appliance without bound.
const (
	DefaultMaxSpans = 4096
	DefaultMaxBytes = 1 << 20 // 1 MB of span payload
)

// SpanData is one recorded (ended) span, in export form.
type SpanData struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Service    string            `json:"service"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationMS float64           `json:"duration_ms"`
	Status     string            `json:"status"`
	Message    string            `json:"message,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// approxBytes estimates the span's retained size for the byte bound.
func (sd *SpanData) approxBytes() int64 {
	n := 128 + len(sd.TraceID) + len(sd.SpanID) + len(sd.ParentID) +
		len(sd.Service) + len(sd.Name) + len(sd.Message)
	for k, v := range sd.Attrs {
		n += 32 + len(k) + len(v)
	}
	return int64(n)
}

// CollectorStats snapshots the ring's occupancy.
type CollectorStats struct {
	Spans   int    `json:"spans"`
	Bytes   int64  `json:"bytes"`
	Evicted uint64 `json:"evicted"`
}

// Collector is the bounded ring buffer every tracer in a deployment
// shares. In-process rigs hand one Collector to both the grid
// environment and the appliance, which is what makes the portal's
// /api/trace export a single cross-service tree.
type Collector struct {
	mu       sync.Mutex
	maxSpans int
	maxBytes int64
	ring     []SpanData
	head     int // index of the oldest entry once the ring wrapped
	n        int
	bytes    int64
	evicted  uint64
}

// NewCollector returns a collector bounded to maxSpans entries and
// maxBytes of estimated span payload; zero (or negative) values pick the
// defaults.
func NewCollector(maxSpans int, maxBytes int64) *Collector {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Collector{maxSpans: maxSpans, maxBytes: maxBytes}
}

func (c *Collector) add(sd SpanData) {
	sz := sd.approxBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil {
		c.ring = make([]SpanData, c.maxSpans)
	}
	// Evict oldest-first until both bounds hold. A span larger than the
	// whole byte budget empties the ring and is still admitted: dropping
	// fresh data to preserve stale data would invert the ring's purpose.
	for c.n > 0 && (c.n == c.maxSpans || c.bytes+sz > c.maxBytes) {
		c.bytes -= c.ring[c.head].approxBytes()
		c.ring[c.head] = SpanData{}
		c.head = (c.head + 1) % c.maxSpans
		c.n--
		c.evicted++
	}
	c.ring[(c.head+c.n)%c.maxSpans] = sd
	c.n++
	c.bytes += sz
}

// Trace returns every retained span of one trace, sorted by start time,
// then ancestors first (on an exact clock a child may start at its
// parent's instant), then span id. Depth/parent assembly is the
// consumer's job — the waterfall renderers build it from ParentID.
func (c *Collector) Trace(traceID string) []SpanData {
	c.mu.Lock()
	var out []SpanData
	for i := 0; i < c.n; i++ {
		sd := c.ring[(c.head+i)%c.maxSpans]
		if sd.TraceID == traceID {
			out = append(out, sd)
		}
	}
	c.mu.Unlock()
	parent := make(map[string]string, len(out))
	for _, sd := range out {
		parent[sd.SpanID] = sd.ParentID
	}
	// depth counts a span's ancestors in out: an ancestor's is lower.
	depth := func(sd *SpanData) (d int) {
		for p, ok := parent[sd.ParentID]; ok && d < len(out); p, ok = parent[p] {
			d++
		}
		return d
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if da, db := depth(a), depth(b); da != db {
			return da < db
		}
		return a.SpanID < b.SpanID
	})
	return out
}

// Stats reports the ring's current occupancy and lifetime evictions.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{Spans: c.n, Bytes: c.bytes, Evicted: c.evicted}
}
