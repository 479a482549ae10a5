// Package sizedio reads a stream whose length was declared up front —
// an HTTP body with a Content-Length, a gzip row with a recorded raw
// size — into one buffer allocated once at that size, instead of
// growing one from 512 bytes as io.ReadAll does (which costs four to
// five times the payload in garbage on a 256 KB upload).
package sizedio

import (
	"errors"
	"io"
)

// MaxPrealloc caps what a declared length may reserve before a single
// byte has arrived, so a lying header cannot pin memory for free. Past
// it the buffer at most doubles with the bytes actually received. The
// paper's ~5 MB executable fits under it in one allocation.
const MaxPrealloc = 8 << 20

// ErrTooLarge reports a stream that declared, or delivered, more than
// the caller's limit.
var ErrTooLarge = errors.New("sizedio: stream exceeds size limit")

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
			var one [1]byte
			n, err := r.Read(one[:])
			if n > 0 {
				if int64(len(buf)) >= limit {
					return nil, ErrTooLarge
				}
				buf = append(grow(buf, declared, limit), one[0])
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
