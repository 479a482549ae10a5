package core

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// probeLog is the clock under the fixture's Probe, and nothing else's.
// Every Burn, DiskRead and DiskWrite reads it exactly once before it
// accounts, so the recorder's totals at each reading say what the call
// before it was: kind, amount, order — the sequence the paper's figures
// are drawn from.
type probeLog struct {
	vtime.Clock
	rec *metrics.Recorder

	mu    sync.Mutex
	on    bool
	last  [3]float64
	calls []string
}

var probeKinds = [3]metrics.Kind{metrics.CPU, metrics.DiskRead, metrics.DiskWrite}

func (l *probeLog) Now() time.Time {
	l.mu.Lock()
	l.note()
	l.mu.Unlock()
	return l.Clock.Now()
}

// note logs what moved since the last reading. Amounts are whole
// nanoseconds or bytes; rounding drops the float noise of summing buckets.
func (l *probeLog) note() {
	if !l.on {
		return
	}
	for i, k := range probeKinds {
		total := l.rec.Total(k)
		if d := math.Round(total - l.last[i]); d != 0 {
			l.calls = append(l.calls, fmt.Sprintf("%s %.0f", k, d))
		}
		l.last[i] = total
	}
}

// record runs f with logging on and returns the calls made meanwhile.
func (l *probeLog) record(f func()) []string {
	l.mu.Lock()
	l.on, l.calls = true, nil
	for i, k := range probeKinds {
		l.last[i] = l.rec.Total(k)
	}
	l.mu.Unlock()
	f()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.note()
	l.on = false
	return l.calls
}

// heldExecutable is a handle on blob as service's executable, pinned in a
// database of its own, for tests that drive one pipeline stage on a
// service the fixture's database never stored.
func heldExecutable(o *OnServe, service string, blob []byte) *executable {
	db, err := blobdb.Open(blobdb.Options{})
	if err != nil {
		panic(err)
	}
	tab := db.Table(ExecutablesTable)
	if err := tab.Put(service, nil, blob); err != nil {
		panic(err)
	}
	row, err := tab.Open(service)
	if err != nil {
		panic(err)
	}
	return &executable{o: o, row: row, service: service, staged: service + ".gsh"}
}

// newHTTPServer mounts h on a test HTTP server and returns its base URL.
func newHTTPServer(t *testing.T, h http.Handler) string {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs.URL
}
