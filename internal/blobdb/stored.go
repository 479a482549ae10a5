package blobdb

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"sync"

	"repro/internal/sizedio"
)

// Stored is a blob in the form a row keeps it: the gzip stream, and the
// length and SHA-256 of what it inflates to.
type Stored struct {
	Gzip    []byte
	RawSize int
	Sum     [sha256.Size]byte
}

// ReadStored reads r to EOF in one pass, 32 KB at a time: every piece is
// hashed, deflated and forgotten, so the one object of the blob's size it
// allocates is the stream a row will keep (Table.PutStored). declared is
// the length the sender announced (negative: none) and sizes the scratch
// buffer, up to sizedio.MaxPrealloc. More than limit bytes, declared or
// delivered, is ErrTooLarge as soon as it shows; r's own error comes back
// as it is.
func ReadStored(r io.Reader, declared, limit int64) (*Stored, error) {
	if declared > limit {
		return nil, ErrTooLarge
	}
	sum := sha256.New()
	var n int64
	comp, err := deflate(int(min(max(declared, 0), sizedio.MaxPrealloc)), func(zw io.Writer) (err error) {
		if n, err = sizedio.Copy(io.MultiWriter(sum, zw), io.LimitReader(r, limit+1)); n > limit {
			err = ErrTooLarge
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	s := &Stored{Gzip: comp, RawSize: int(n)}
	sum.Sum(s.Sum[:0])
	return s, nil
}

// Version is one row version, pinned: what Open found under the key,
// whatever is put there or deleted afterwards.
type Version struct {
	// Meta is the row's own map, shared like Gzip and for the same reason:
	// a re-publish or SetMeta installs a new row with a new map. Read-only.
	Meta    map[string]string
	RawSize int    // length of the bytes Reader yields
	Gen     uint64 // see Record.Gen
	// Gzip is the stored gzip stream: the row's own slice, shared with every
	// other reader, the WAL encoder and the compactor. Read-only — safe to
	// hand out because rows are immutable after apply: a re-publish installs
	// a new row with a new slice, it never writes into this one.
	Gzip []byte

	r *row
}

// Open pins the row version now stored under key. It inflates nothing and
// accounts nothing to the cost model: a caller that goes on to read the
// version charges what its read stands for.
func (t *Table) Open(key string) (*Version, error) {
	r, err := t.row(key)
	if err != nil {
		return nil, err
	}
	return &Version{Meta: r.meta, RawSize: r.rawSize, Gen: r.gen, Gzip: r.comp, r: r}, nil
}

// Digest returns the SHA-256 of the raw bytes, recorded when they were
// put. A row logged before digests were has it computed by one streaming
// inflate, the first time any reader of the row asks.
func (v *Version) Digest() ([sha256.Size]byte, error) { return v.r.digest() }

// Reader returns the raw bytes from the start, inflated as they are read.
// The stream vouches for itself before it ends: length, gzip trailer and
// digest are checked while the bytes of the last Read are still held back,
// so no reader receives the whole of a stream that is then ErrCorrupt.
// Close it; Read and Close may be called from different goroutines.
func (v *Version) Reader() (io.ReadCloser, error) {
	sum, err := v.Digest()
	if err != nil {
		return nil, err
	}
	sr := newStoredReader(v.r)
	sr.want, sr.verify = sum, true
	return sr, nil
}

// storedReader inflates one row's stored stream through a kept
// inflater. It is not pooled itself: an HTTP transport may still Read a
// request body it has already closed, and that late call must find a
// closed reader, not somebody else's stream.
type storedReader struct {
	mu     sync.Mutex
	closed bool
	in     *inflater // nil if the stream has no gzip header
	sum    hash.Hash
	want   [sha256.Size]byte // what the bytes must hash to ...
	verify bool              // ... unless row.digest is reading to learn it
	left   int64             // raw bytes the row promises and Read has not seen
	err    error             // sticky
}

func newStoredReader(r *row) *storedReader {
	s := &storedReader{sum: sha256.New(), left: int64(r.rawSize)}
	if s.in, s.err = openInflater(r.comp); s.err != nil {
		s.err = fmt.Errorf("%w: %v", ErrCorrupt, s.err)
	}
	return s
}

func (s *storedReader) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fs.ErrClosed
	}
	if s.err != nil || len(p) == 0 {
		return 0, s.err
	}
	n, err := s.in.zr.Read(p)
	s.sum.Write(p[:n])
	s.left -= int64(n)
	if err == nil && s.left > 0 {
		return n, nil
	}
	// At the row's length, read on to the end of the gzip stream — its
	// trailer is checked there, and nothing may follow it — before
	// releasing these n bytes.
	for err == nil && s.left == 0 {
		var one [1]byte
		var extra int
		extra, err = s.in.zr.Read(one[:])
		s.left -= int64(extra)
	}
	var got [sha256.Size]byte
	switch {
	case err != nil && err != io.EOF:
		s.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	case s.left != 0:
		s.err = fmt.Errorf("%w: stream does not inflate to the row's length", ErrCorrupt)
	case s.verify && [sha256.Size]byte(s.sum.Sum(got[:0])) != s.want:
		s.err = fmt.Errorf("%w: stream does not hash to the row's digest", ErrCorrupt)
	default:
		s.err = io.EOF
		return n, io.EOF
	}
	return 0, s.err
}

// Close gives the inflater back. It is idempotent.
func (s *storedReader) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.in != nil {
		s.in.release()
	}
	s.closed = true
	return nil
}
