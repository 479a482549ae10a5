package core

import (
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/blobdb"
	"repro/internal/gridftp"
	"repro/internal/trace"
)

// executable is one invocation's handle on the service's stored executable:
// the row version blobdb.Table.Open pinned when the invocation began. The
// pipeline reads owner, stage-in list and size from it, and whatever it
// ships it ships that version, under that version's digest, whatever is
// published meanwhile. The content is only ever a stream (file): nothing
// in core holds an executable's raw bytes, and a stage that sends nothing
// reads nothing. Table.Get still exists for cmd/bench's rungs and tests.
type executable struct {
	o       *OnServe
	row     *blobdb.Version
	service string
	staged  string // file name at the site
	owner   string
	stageIn []string
	root    *trace.Span // the db.fetch span's parent

	fetched once
	cutOnce once
	cut     *gridftp.Cut
}

// once runs a function at most once, as sync.Once does, but a later
// caller waits on a condition, not on a mutex: the first call sleeps on
// the clock (the cost model charges it time), and a simulation's clock
// steps only while every goroutine waits on a channel, a condition or a
// timer.
type once struct {
	mu         sync.Mutex
	done       sync.Cond
	begun, end bool
}

// Do calls f if no Do has, and returns once that first call has.
func (o *once) Do(f func()) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.begun && !o.end {
		o.done.Wait()
	}
	if !o.begun {
		o.begun, o.done.L = true, &o.mu
		o.mu.Unlock()
		defer func() { o.mu.Lock(); o.end = true; o.done.Broadcast() }()
		f()
	}
}

// openExecutable pins serviceName's stored executable.
func (o *OnServe) openExecutable(serviceName string, root *trace.Span) (*executable, error) {
	row, err := o.parts.DB.Table(ExecutablesTable).Open(serviceName)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	x := &executable{o: o, row: row, service: serviceName, staged: serviceName + ".gsh", owner: row.Meta["owner"], root: root}
	if s := row.Meta["stage_in"]; s != "" {
		x.stageIn = strings.Split(s, ",")
	}
	return x, nil
}

// fetch is file retrieval: "the lookup of the associated file in the
// database. It is loaded from the database and then stored in a temporary
// location." It runs at most once per handle and charges the cost model
// what the paper's appliance did there — row read, decompression (the
// first CPU peak of Fig. 6), temporary spill — although the inflate itself
// now happens inside the transfer.
func (x *executable) fetch() {
	x.fetched.Do(func() {
		o, raw, stored := x.o, x.row.RawSize, len(x.row.Gzip)
		sp := o.parts.Tracing.StartSpan("db.fetch", x.root.Context())
		o.cfg.Probe.DiskRead(stored)
		o.cfg.Probe.Decompress(raw)
		sp.SetInt("bytes", int64(raw))
		sp.SetInt("stored_bytes", int64(stored))
		sp.End()
		o.cfg.Probe.DiskWrite(raw)
	})
}

// file describes the raw executable to a transfer.
func (x *executable) file() (gridftp.File, error) {
	sum, err := x.row.Digest()
	if err != nil {
		return gridftp.File{}, fmt.Errorf("onserve: load executable: %w", err)
	}
	return gridftp.File{Size: int64(x.row.RawSize), SHA256: hex.EncodeToString(sum[:]), Open: x.row.Reader}, nil
}
