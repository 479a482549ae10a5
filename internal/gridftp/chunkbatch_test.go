package gridftp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestHaveChunksBatchesLargeProbes: a probe for more digests than one
// have-request may carry splits into MaxManifestChunks-sized batches and
// merges the missing lists.
func TestHaveChunksBatchesLargeProbes(t *testing.T) {
	f := newFixture(t)
	var probes atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ftp/chunks/have" {
			probes.Add(1)
		}
		f.srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	c := &Client{BaseURL: hs.URL, Cred: f.alice.Cred}

	// Seed one real chunk so the merge has something to subtract.
	known := bytes.Repeat([]byte("known chunk "), 100)
	if _, err := c.PutChunked("seed.gsh", known, nil, 0); err != nil {
		t.Fatal(err)
	}
	probes.Store(0)

	digests := []string{digestOf(known)}
	for i := 0; i < MaxManifestChunks; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("fake-%d", i)))
		digests = append(digests, hex.EncodeToString(sum[:]))
	}
	missing, err := c.HaveChunks(digests)
	if err != nil {
		t.Fatal(err)
	}
	if got := probes.Load(); got != 2 {
		t.Fatalf("%d digests probed in %d requests, want 2", len(digests), got)
	}
	if len(missing) != MaxManifestChunks {
		t.Fatalf("missing %d digests, want %d", len(missing), MaxManifestChunks)
	}
	for _, d := range missing {
		if d == digestOf(known) {
			t.Fatal("present chunk reported missing")
		}
	}
}

func TestWireChunks(t *testing.T) {
	wire := bytes.Repeat([]byte("abcdefgh"), 3000) // 24000 bytes
	cut, err := BytesFile(wire, nil).Cut(8 << 10)
	if err != nil || cut == nil || cut.Encoding != "" || cut.WireBytes != int64(len(wire)) || len(cut.Order) != 3 {
		t.Fatalf("cut %+v, %v", cut, err)
	}
	digests, sizes := cut.Digests(), cut.Sizes
	// Digests are unique and sorted; sizes cover every digest.
	var total int
	for i, d := range digests {
		if i > 0 && digests[i-1] >= d {
			t.Fatalf("digests not sorted unique at %d: %q >= %q", i, digests[i-1], d)
		}
		sz, ok := sizes[d]
		if !ok || sz <= 0 {
			t.Fatalf("digest %q has size %d", d, sz)
		}
		total += sz
	}
	// The repeated content dedupes intra-file: unique chunk bytes cannot
	// exceed the wire, and here the 8 KiB chunks repeat exactly.
	if total > len(wire) {
		t.Fatalf("unique chunk bytes %d exceed wire %d", total, len(wire))
	}
	if len(digests) != 2 { // 2 distinct 8 KiB patterns: repeats + 8000-byte tail
		t.Fatalf("expected heavy intra-file dedup, got %d unique chunks", len(digests))
	}
	if cut, err := BytesFile(nil, nil).Cut(0); cut != nil || err != nil {
		t.Fatalf("empty wire chunked: %+v %v", cut, err)
	}
	// The gzip stream is the wire when it is the smaller, and is cut where
	// it lies: Open is never called.
	gz := gzipBytes(t, wire)
	f := BytesFile(wire, gz)
	f.Open = func() (io.ReadCloser, error) { t.Error("gzip wire opened the raw bytes"); return nil, io.EOF }
	if cut, err := f.Cut(64); err != nil || cut.Encoding != "gzip" || cut.WireBytes != int64(len(gz)) {
		t.Fatalf("gzip cut %+v, %v", cut, err)
	}
}
