package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/trace"
)

// executable is one invocation's read-only handle on the service's stored
// executable. Opening it costs one Stat and resolves what the pipeline
// reads without the bytes: owner, stage-in list, raw size, row generation.
// The bytes exist only once a transfer consumes them: bytes runs the
// fetch step on first demand, at most once, and hands every caller the
// database's own shared, immutable slice (blobdb.Record.Blob) — nobody
// writes an executable after its row is applied, so nobody needs a copy,
// and a stage that will not send the bytes never asks for them.
type executable struct {
	o       *OnServe
	service string
	staged  string // file name at the site
	owner   string
	stageIn []string
	root    *trace.Span // the db.fetch span's parent

	mu      sync.Mutex
	size    int    // raw length
	gen     uint64 // row generation size and blob belong to
	fetched bool
	blob    []byte
	err     error
}

// openExecutable resolves serviceName's handle.
func (o *OnServe) openExecutable(serviceName string, root *trace.Span) (*executable, error) {
	rec, err := o.cfg.DB.Table(ExecutablesTable).Stat(serviceName)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	x := &executable{
		o: o, service: serviceName, staged: serviceName + ".gsh", owner: rec.Meta["owner"],
		root: root, size: rec.RawSize, gen: rec.Gen,
	}
	if s := rec.Meta["stage_in"]; s != "" {
		x.stageIn = strings.Split(s, ",")
	}
	return x, nil
}

// bytes returns the executable, fetching it if no one has yet. A
// re-publish between open and fetch is adopted whole: version then
// reports the fetched row.
func (x *executable) bytes() ([]byte, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.fetched {
		x.fetched = true
		x.err = x.o.fetchExecutable(x)
	}
	return x.blob, x.err
}

// version reports the raw size and row generation the handle stands for.
func (x *executable) version() (size int, gen uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.size, x.gen
}
