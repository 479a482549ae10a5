package gridftp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
)

// putChunkWorkers bounds the PUT pipeline of one chunked upload. The
// shaped netsim link serialises bytes FIFO, so the workers overlap
// request setup and round-trip latency, not bandwidth.
const putChunkWorkers = 4

// ChunkedPutStats describes what one PutChunked actually shipped.
type ChunkedPutStats struct {
	// ChunksTotal counts manifest entries (occurrences, not unique).
	ChunksTotal int
	// ChunksShipped counts unique chunks that crossed the wire.
	ChunksShipped int
	// ChunksDeduped counts manifest entries satisfied without a
	// transfer: already on the server (prior version, resumed upload,
	// another owner) or repeated within this file.
	ChunksDeduped int
	// WireBytes is what crossed the WAN; LogicalBytes the file size.
	WireBytes    int64
	LogicalBytes int64
	// Compressed reports whether the wire carried the gzip stream.
	Compressed bool
	// Resumed reports whether the server already held at least one of
	// this manifest's chunks before the upload.
	Resumed bool
	// Fallback reports that the server does not speak the chunk
	// protocol and the transfer downgraded to a plain PUT.
	Fallback bool
	// Checksum is the server-confirmed whole-file SHA-256.
	Checksum string
}

// Wire names the way the file's bytes travelled, as a stage span records
// it: the stored gzip stream in chunks, the raw bytes in chunks, or the
// plain PUT a transfer fell back to.
func (s *ChunkedPutStats) Wire() string {
	switch {
	case s.Fallback:
		return "fallback-put"
	case s.Compressed:
		return "gzip-chunks"
	}
	return "raw-chunks"
}

// HaveChunks asks the server which of digests it is missing — the
// dedup/resume probe, reused by data-aware placement as a possession
// oracle. Probes larger than one manifest's worth of digests are split
// into MaxManifestChunks-sized batches transparently; the merged
// missing list covers every batch.
func (c *Client) HaveChunks(digests []string) ([]string, error) {
	if len(digests) <= MaxManifestChunks {
		return c.haveChunksOne(digests)
	}
	var missing []string
	for off := 0; off < len(digests); off += MaxManifestChunks {
		end := off + MaxManifestChunks
		if end > len(digests) {
			end = len(digests)
		}
		m, err := c.haveChunksOne(digests[off:end])
		if err != nil {
			return nil, err
		}
		missing = append(missing, m...)
	}
	return missing, nil
}

// haveChunksOne issues one probe request (≤ MaxManifestChunks digests).
func (c *Client) haveChunksOne(digests []string) ([]string, error) {
	body, err := json.Marshal(haveRequest{Digests: digests})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	reply, err := c.do(call{method: http.MethodPost, target: "/ftp/chunks/have",
		op: "CHUNK-HAVE", checksum: hex.EncodeToString(sum[:]), contentType: "application/json", body: body})
	if err != nil {
		return nil, fmt.Errorf("gridftp: chunks/have: %w", err)
	}
	if reply.Status != http.StatusOK {
		return nil, replyError(reply)
	}
	var have haveReply
	if err := json.Unmarshal(reply.Body, &have); err != nil {
		return nil, err
	}
	return have.Missing, nil
}

// PutChunk ships one wire chunk under its digest.
func (c *Client) PutChunk(digest string, chunk []byte) error {
	reply, err := c.do(call{method: http.MethodPut, target: "/ftp/chunk/" + digest,
		op: "CHUNK-PUT", name: digest, contentType: "application/octet-stream", body: chunk})
	if err != nil {
		return fmt.Errorf("gridftp: put chunk %s: %w", digest[:12], err)
	}
	if reply.Status != http.StatusCreated {
		return replyError(reply)
	}
	return nil
}

// Commit asks the server to assemble the manifest into name, verify
// fileSha256 and register the file. It returns the confirmed checksum.
func (c *Client) Commit(name, encoding, fileSha256 string, chunks []string) (string, error) {
	body, err := json.Marshal(chunkManifest{
		Name:       name,
		Encoding:   encoding,
		FileSha256: fileSha256,
		Chunks:     chunks,
	})
	if err != nil {
		return "", err
	}
	reply, err := c.do(call{method: http.MethodPost, target: "/ftp/commit",
		op: "CHUNK-COMMIT", name: name, checksum: fileSha256,
		contentType: "application/json", header: EncodingHeader, value: encoding, body: body})
	if err != nil {
		return "", fmt.Errorf("gridftp: commit %s: %w", name, err)
	}
	if reply.Status != http.StatusCreated {
		return "", replyError(reply)
	}
	return reply.Header.Get(ChecksumHeader), nil
}

// Cut is how one file travels through the chunk protocol: which wire
// carries it and the chunks that wire falls into.
type Cut struct {
	// Encoding is "gzip" when the wire is the file's gzip stream, "" when it
	// is the file's own bytes.
	Encoding string
	// Order lists the chunk digests in wire order — the commit manifest;
	// chunk i covers wire bytes from i*ChunkBytes on.
	Order      []string
	ChunkBytes int
	// Sizes maps every distinct digest to its chunk's length.
	Sizes map[string]int
	// WireBytes is the length of the wire.
	WireBytes int64
}

// Digests returns the distinct chunk digests, sorted.
func (c *Cut) Digests() []string {
	out := make([]string, 0, len(c.Sizes))
	for d := range c.Sizes {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// GzipWire reports whether the chunk protocol carries f as its gzip stream:
// there is one and it is the smaller.
func (f File) GzipWire() bool { return f.Gzip != nil && int64(len(f.Gzip)) < f.Size }

// Cut chunks f's wire at chunkBytes (zero means DefaultChunkBytes) without
// preparing an upload — placement asks a site "which of these would you
// still need?" with it. The gzip wire is cut where it lies; the raw wire
// is read through once from Open, a chunk at a time. A nil Cut means the
// chunk protocol does not apply: the wire is empty or has more chunks than
// one manifest holds, and PutChunkedFile would send a plain PUT.
func (f File) Cut(chunkBytes int) (*Cut, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	chunkBytes = min(chunkBytes, MaxChunkBytes)
	c := &Cut{ChunkBytes: chunkBytes, WireBytes: f.Size, Sizes: make(map[string]int)}
	if f.GzipWire() {
		c.Encoding, c.WireBytes = "gzip", int64(len(f.Gzip))
	}
	if c.WireBytes == 0 || (c.WireBytes+int64(chunkBytes)-1)/int64(chunkBytes) > MaxManifestChunks {
		return nil, nil
	}
	var wire io.Reader // the raw wire; the gzip wire is sliced where it lies
	var buf []byte     // ... read a chunk at a time into this
	if c.Encoding == "" {
		rc, err := f.Open()
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		wire, buf = rc, make([]byte, min(int64(chunkBytes), c.WireBytes))
	}
	for off := int64(0); off < c.WireBytes; off += int64(chunkBytes) {
		n := min(int64(chunkBytes), c.WireBytes-off)
		var piece []byte
		if wire == nil {
			piece = f.Gzip[off : off+n]
		} else {
			piece = buf[:n]
			if _, err := io.ReadFull(wire, piece); err != nil {
				return nil, fmt.Errorf("gridftp: cut chunks: %w", err)
			}
		}
		sum := sha256.Sum256(piece)
		d := hex.EncodeToString(sum[:])
		c.Order = append(c.Order, d)
		c.Sizes[d] = len(piece)
	}
	return c, nil
}

// PutChunked uploads data as name via the chunk protocol; gz is the gzip
// encoding of data, or nil.
func (c *Client) PutChunked(name string, data, gz []byte, chunkBytes int) (*ChunkedPutStats, error) {
	return c.PutChunkedFile(name, BytesFile(data, gz), chunkBytes)
}

// PutChunkedFile uploads f as name via the chunk protocol: probe the
// server for chunks it already holds, ship only the missing ones
// (pipelined), then commit the manifest under f's SHA-256. When f.Gzip is
// the smaller wire it carries the file and the server inflates at commit.
// Against a server that does not speak the chunk protocol, and for a wire
// the protocol does not apply to, the transfer falls back to PutFile.
//
// A transfer killed mid-flight resumes on retry: chunks that reached the
// server stay in its content-addressed store, so the probe reports them
// present and only the remainder is re-shipped — the restart-marker
// behaviour of real GridFTP.
func (c *Client) PutChunkedFile(name string, f File, chunkBytes int) (*ChunkedPutStats, error) {
	cut, err := f.Cut(chunkBytes)
	if err != nil {
		return nil, err
	}
	stats := &ChunkedPutStats{LogicalBytes: f.Size}
	fallback := func() (*ChunkedPutStats, error) {
		checksum, err := c.PutFile(name, f)
		if err != nil {
			return nil, err
		}
		stats.WireBytes, stats.Fallback, stats.Checksum = f.Size, true, checksum
		return stats, nil
	}
	if cut == nil {
		return fallback()
	}
	unique := cut.Digests()
	// One full probe->ship->commit cycle, retried once if the commit
	// races an eviction (ErrNoChunk).
	for attempt := 0; ; attempt++ {
		missing, err := c.HaveChunks(unique)
		if err != nil {
			if errors.Is(err, ErrBadInput) || errors.Is(err, ErrNoFile) {
				// Stock server: the chunk paths are rejected as bad file
				// names. Downgrade to a monolithic PUT.
				return fallback()
			}
			return nil, err
		}
		if attempt == 0 && len(missing) < len(unique) {
			stats.Resumed = true
		}
		if err := c.putChunks(f, cut, missing, stats); err != nil {
			return nil, err
		}
		checksum, err := c.Commit(name, cut.Encoding, f.SHA256, cut.Order)
		if err != nil {
			if errors.Is(err, ErrNoChunk) && attempt == 0 {
				continue
			}
			return nil, err
		}
		if checksum != f.SHA256 {
			return nil, fmt.Errorf("%w: server assembled %s, sent %s", ErrChecksum, checksum, f.SHA256)
		}
		stats.ChunksTotal = len(cut.Order)
		stats.ChunksDeduped = stats.ChunksTotal - stats.ChunksShipped
		stats.Compressed = cut.Encoding == "gzip"
		stats.Checksum = checksum
		return stats, nil
	}
}

// putChunks ships the missing chunks through a small worker pool.
func (c *Client) putChunks(f File, cut *Cut, missing []string, stats *ChunkedPutStats) error {
	if len(missing) == 0 {
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	type piece struct {
		digest string
		data   []byte
	}
	work := make(chan piece)
	for i := 0; i < min(putChunkWorkers, len(missing)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				err := c.PutChunk(p.digest, p.data)
				mu.Lock()
				if err == nil {
					stats.ChunksShipped++
					stats.WireBytes += int64(len(p.data))
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	err := f.eachMissing(cut, missing, func(digest string, data []byte) { work <- piece{digest, data} })
	close(work)
	wg.Wait()
	if err != nil {
		return err
	}
	return firstErr
}

// eachMissing hands send every chunk of cut the server lacks, in wire order:
// slices of the gzip stream where that is the wire, otherwise chunks of a
// second read of Open, each in a buffer of its own that nothing but send's
// receiver holds.
func (f File) eachMissing(cut *Cut, missing []string, send func(digest string, data []byte)) error {
	need := make(map[string]bool, len(missing))
	for _, d := range missing {
		need[d] = true
	}
	var raw io.ReadCloser
	if cut.Encoding == "" {
		var err error
		if raw, err = f.Open(); err != nil {
			return err
		}
		defer raw.Close()
	}
	for i, d := range cut.Order {
		if len(need) == 0 {
			break
		}
		n := cut.Sizes[d]
		var data []byte
		var err error
		switch {
		case raw == nil:
			data = f.Gzip[i*cut.ChunkBytes:][:n]
		case need[d]:
			data = make([]byte, n)
			_, err = io.ReadFull(raw, data)
		default:
			_, err = io.CopyN(io.Discard, raw, int64(n))
		}
		if err != nil {
			return fmt.Errorf("gridftp: read chunk %d: %w", i, err)
		}
		if need[d] {
			delete(need, d)
			send(d, data)
		}
	}
	return nil
}
