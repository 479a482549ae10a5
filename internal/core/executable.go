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

	fetched sync.Once
	cutOnce sync.Once
	cut     *gridftp.Cut
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
		o.cfg.Probe.BurnFor(raw, o.cfg.Cost.DecompressBps)
		sp.SetInt("bytes", int64(raw))
		sp.SetInt("stored_bytes", int64(stored))
		sp.End()
		o.cfg.Probe.DiskWrite(raw)
	})
}

// file describes the executable to a transfer; the stored gzip stream
// rides along when wire compression is on.
func (x *executable) file() (gridftp.File, error) {
	sum, err := x.row.Digest()
	if err != nil {
		return gridftp.File{}, fmt.Errorf("onserve: load executable: %w", err)
	}
	f := gridftp.File{Size: int64(x.row.RawSize), SHA256: hex.EncodeToString(sum[:]), Open: x.row.Reader}
	if x.o.cfg.WireCompression {
		f.Gzip = x.row.Gzip
	}
	return f, nil
}
