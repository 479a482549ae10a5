// Package sizedio reads a stream whose length was declared up front —
// an HTTP body with a Content-Length, a gzip row with a recorded raw
// size — into one buffer allocated once at that size, instead of
// growing one from 512 bytes as io.ReadAll does (which costs four to
// five times the payload in garbage on a 256 KB upload) — and copies a
// stream of unknown length through the process's one free list of 32 KB
// buffers.
package sizedio

import (
	"errors"
	"io"
	"runtime"
)

// MaxKept is the most a FreeList item with a Cap may hold and be kept:
// the deflate scratch and WAL frame of a 1 MB executable fit, a 256 MB
// upload's are dropped, not pinned.
const MaxKept = 2 << 20

// FreeList keeps spare items for any goroutine to take, up to one for
// each P that can be using one at once. Unlike the sync package's Pool, a
// collection does not empty it, so codec state is not bought again every
// few dozen calls. Get and Put never block.
type FreeList[T any] struct {
	items chan T
	fresh func() T
}

// NewFreeList returns an empty list whose Get makes items with fresh.
func NewFreeList[T any](fresh func() T) *FreeList[T] {
	return &FreeList[T]{make(chan T, runtime.GOMAXPROCS(0)), fresh}
}

// Get takes a spare item, or makes one.
func (l *FreeList[T]) Get() T {
	select {
	case x := <-l.items:
		return x
	default:
		return l.fresh()
	}
}

// Put keeps x unless the list is full or x's Cap is past MaxKept.
func (l *FreeList[T]) Put(x T) {
	if c, ok := any(x).(interface{ Cap() int }); ok && c.Cap() > MaxKept {
		return
	}
	select {
	case l.items <- x:
	default:
	}
}

// Len is how many spare items the list holds.
func (l *FreeList[T]) Len() int { return len(l.items) }

var copyBuffers = NewFreeList(func() *[32 << 10]byte { return new([32 << 10]byte) })

// Copy is io.CopyBuffer through a 32 KB buffer from the free list, which
// goes back to it when Copy returns, whatever it returns. As with
// io.CopyBuffer, a src with WriteTo or a dst with ReadFrom is copied by
// that method instead: a caller that wants the buffer used hides them.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	buf := copyBuffers.Get()
	defer copyBuffers.Put(buf)
	return io.CopyBuffer(dst, src, buf[:])
}

// MaxPrealloc caps what a declared length may reserve before a single
// byte has arrived, so a lying header cannot pin memory for free. Past
// it the buffer at most doubles with the bytes actually received. The
// paper's ~5 MB executable fits under it in one allocation.
const MaxPrealloc = 8 << 20

// ErrTooLarge reports a stream that declared, or delivered, more than
// the caller's limit.
var ErrTooLarge = errors.New("sizedio: stream exceeds size limit")

// probes lends the one-byte reads that find an honest sender at EOF: a
// byte on the stack would escape to the heap through the Read call.
var probes = NewFreeList(func() *[1]byte { return new([1]byte) })

// ReadAll reads r to EOF and returns what it read. declared is the
// length the sender announced, negative when it announced none; an
// honest sender below MaxPrealloc costs exactly one allocation of
// that size. The declaration is a sizing hint only: a shorter or
// longer stream is returned as it came, so a caller that needs the
// lengths to agree compares them. More than limit bytes — declared or
// delivered — is ErrTooLarge, and the buffer never grows past limit.
func ReadAll(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, ErrTooLarge
	}
	buf := make([]byte, 0, min(max(declared, 0), MaxPrealloc))
	for {
		if len(buf) == cap(buf) {
			// Full. An honest sender is at EOF now; probe with one byte
			// on the side so finding that out does not reallocate.
			one := probes.Get()
			n, err := r.Read(one[:])
			b := one[0]
			probes.Put(one)
			if n > 0 {
				if int64(len(buf)) >= limit {
					return nil, ErrTooLarge
				}
				buf = append(grow(buf, declared, limit), b)
			}
			if err == io.EOF {
				return buf, nil
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// grow doubles a full buf, stopping at the declared length while the
// stream is still inside it and at limit always.
func grow(buf []byte, declared, limit int64) []byte {
	n := max(2*int64(cap(buf)), 512)
	if declared > int64(len(buf)) {
		n = min(n, declared)
	}
	out := make([]byte, len(buf), min(n, limit))
	copy(out, buf)
	return out
}
