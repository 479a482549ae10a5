package core

import (
	"fmt"
	"math"
	"net/http"
	"repro/internal/soap"
	"sync"
	"testing"

	"repro/internal/blobdb"
	"repro/internal/metrics"
)

// probeLog is the Observe hook of the fixture's recorder. Every Burn,
// DiskRead and DiskWrite accounts exactly once, so the log says what each
// call was: kind, amount, order — the sequence the paper's figures are
// drawn from.
type probeLog struct {
	mu    sync.Mutex
	on    bool
	calls []string
}

// observe logs one accounting while recording. Amounts are whole
// nanoseconds or bytes; rounding drops the float noise of a rate.
func (l *probeLog) observe(k metrics.Kind, amount float64) {
	if k != metrics.CPU && k != metrics.DiskRead && k != metrics.DiskWrite {
		return
	}
	l.mu.Lock()
	if l.on {
		l.calls = append(l.calls, fmt.Sprintf("%s %.0f", k, math.Round(amount)))
	}
	l.mu.Unlock()
}

// record runs f with logging on and returns the calls made meanwhile.
func (l *probeLog) record(f func()) []string {
	l.mu.Lock()
	l.on, l.calls = true, nil
	l.mu.Unlock()
	f()
	l.mu.Lock()
	defer l.mu.Unlock()
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

// newSOAPServer mounts h on an HTTP server on gridNet and returns its base
// URL and a SOAP client that reaches it.
func newSOAPServer(t *testing.T, h http.Handler) (string, *soap.Client) {
	t.Helper()
	ln := gridNet.Listen()
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String(), &soap.Client{HTTP: &http.Client{Transport: overGrid}}
}
