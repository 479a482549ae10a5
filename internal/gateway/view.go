package gateway

import (
	"sort"
	"sync"

	"repro/internal/uddi"
)

// view is the gateway's replicated UDDI cache: every registration in the
// fleet, keyed by service name, so the gateway resolves any service's
// owner and endpoint without a cross-shard hop. It converges two ways —
// a periodic pull of every healthy appliance's registry listing, and an
// on-write upsert: proxying an upload or delete updates the view
// synchronously. It is served read-only at GET /gateway/uddi.
type view struct {
	mu   sync.RWMutex
	recs map[string]uddi.Record
}

func newView() *view {
	return &view{recs: make(map[string]uddi.Record)}
}

func (v *view) upsert(rec uddi.Record) {
	if rec.Name == "" {
		return
	}
	v.mu.Lock()
	v.recs[rec.Name] = rec
	v.mu.Unlock()
}

func (v *view) remove(name string) {
	v.mu.Lock()
	delete(v.recs, name)
	v.mu.Unlock()
}

// owner resolves a service's owner — the second half of the routing key.
func (v *view) owner(name string) (string, bool) {
	v.mu.RLock()
	rec, ok := v.recs[name]
	v.mu.RUnlock()
	return rec.Owner, ok
}

// list returns the whole view sorted by service name, matching the
// deterministic order the appliances' own registry listings use so
// replicated and authoritative listings compare stably.
func (v *view) list(pattern string) []uddi.Record {
	v.mu.RLock()
	out := make([]uddi.Record, 0, len(v.recs))
	for _, rec := range v.recs {
		if uddi.MatchPattern(pattern, rec.Name) {
			out = append(out, rec)
		}
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// replaceAll installs a freshly pulled union snapshot.
func (v *view) replaceAll(recs []uddi.Record) {
	next := make(map[string]uddi.Record, len(recs))
	for _, rec := range recs {
		if rec.Name != "" {
			next[rec.Name] = rec
		}
	}
	v.mu.Lock()
	v.recs = next
	v.mu.Unlock()
}

func (v *view) size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.recs)
}
