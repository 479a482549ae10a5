package gridftp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

// cutChunks splits wire into chunkBytes pieces and returns the ordered
// digest list plus a digest->chunk map (duplicates collapse).
func cutChunks(wire []byte, chunkBytes int) (order []string, byDigest map[string][]byte) {
	byDigest = make(map[string][]byte)
	for off := 0; off < len(wire); off += chunkBytes {
		end := off + chunkBytes
		if end > len(wire) {
			end = len(wire)
		}
		piece := wire[off:end]
		sum := sha256.Sum256(piece)
		d := hex.EncodeToString(sum[:])
		order = append(order, d)
		byDigest[d] = piece
	}
	return order, byDigest
}

// WireChunks summarises how data would chunk on the wire: the unique
// digest set plus each digest's chunk size. It is the read-only half of
// PutChunked's cut, exported so placement can ask a site "which of
// these would you still need?" without preparing an upload.
func WireChunks(wire []byte, chunkBytes int) (digests []string, sizes map[string]int) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes > MaxChunkBytes {
		chunkBytes = MaxChunkBytes
	}
	if len(wire) == 0 {
		return nil, nil
	}
	_, byDigest := cutChunks(wire, chunkBytes)
	digests = make([]string, 0, len(byDigest))
	sizes = make(map[string]int, len(byDigest))
	for d, chunk := range byDigest {
		digests = append(digests, d)
		sizes[d] = len(chunk)
	}
	sort.Strings(digests)
	return digests, sizes
}

// PutChunked uploads data as name via the chunk protocol: probe the
// server for chunks it already holds, ship only the missing ones
// (pipelined), then commit the manifest. When gz (the gzip encoding of
// data) is non-nil and smaller, the wire carries the compressed stream
// and the server inflates at commit. Against a server that does not
// speak the chunk protocol the transfer falls back to a plain PUT.
//
// A transfer killed mid-flight resumes on retry: chunks that reached the
// server stay in its content-addressed store, so the probe reports them
// present and only the remainder is re-shipped — the restart-marker
// behaviour of real GridFTP.
func (c *Client) PutChunked(name string, data, gz []byte, chunkBytes int) (*ChunkedPutStats, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes > MaxChunkBytes {
		chunkBytes = MaxChunkBytes
	}
	wire, encoding := data, ""
	if gz != nil && len(gz) < len(data) {
		wire, encoding = gz, "gzip"
	}
	if len(wire) == 0 || (len(wire)+chunkBytes-1)/chunkBytes > MaxManifestChunks {
		// Empty or too many chunks for one manifest: plain PUT.
		checksum, err := c.Put(name, data)
		if err != nil {
			return nil, err
		}
		return &ChunkedPutStats{
			WireBytes:    int64(len(data)),
			LogicalBytes: int64(len(data)),
			Fallback:     true,
			Checksum:     checksum,
		}, nil
	}
	fileSum := sha256.Sum256(data)
	fileSha := hex.EncodeToString(fileSum[:])
	order, byDigest := cutChunks(wire, chunkBytes)
	unique := make([]string, 0, len(byDigest))
	for d := range byDigest {
		unique = append(unique, d)
	}

	stats := &ChunkedPutStats{
		ChunksTotal:  len(order),
		LogicalBytes: int64(len(data)),
		Compressed:   encoding == "gzip",
	}
	// One full probe->ship->commit cycle, retried once if the commit
	// races an eviction (ErrNoChunk).
	for attempt := 0; ; attempt++ {
		missing, err := c.HaveChunks(unique)
		if err != nil {
			if errors.Is(err, ErrBadInput) || errors.Is(err, ErrNoFile) {
				// Stock server: the chunk paths are rejected as bad file
				// names. Downgrade to a monolithic PUT.
				checksum, perr := c.Put(name, data)
				if perr != nil {
					return nil, perr
				}
				stats.ChunksTotal = 0
				stats.WireBytes = int64(len(data))
				stats.Fallback = true
				stats.Checksum = checksum
				return stats, nil
			}
			return nil, err
		}
		if attempt == 0 && len(missing) < len(unique) {
			stats.Resumed = true
		}
		if err := c.putChunks(missing, byDigest, stats); err != nil {
			return nil, err
		}
		checksum, err := c.Commit(name, encoding, fileSha, order)
		if err != nil {
			if errors.Is(err, ErrNoChunk) && attempt == 0 {
				continue
			}
			return nil, err
		}
		if checksum != fileSha {
			return nil, fmt.Errorf("%w: server assembled %s, sent %s", ErrChecksum, checksum, fileSha)
		}
		stats.ChunksDeduped = stats.ChunksTotal - stats.ChunksShipped
		stats.Checksum = checksum
		return stats, nil
	}
}

// putChunks ships the missing chunks through a small worker pool.
func (c *Client) putChunks(missing []string, byDigest map[string][]byte, stats *ChunkedPutStats) error {
	if len(missing) == 0 {
		return nil
	}
	workers := putChunkWorkers
	if workers > len(missing) {
		workers = len(missing)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan string)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				if err := c.PutChunk(d, byDigest[d]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				stats.ChunksShipped++
				stats.WireBytes += int64(len(byDigest[d]))
				mu.Unlock()
			}
		}()
	}
	for _, d := range missing {
		work <- d
	}
	close(work)
	wg.Wait()
	return firstErr
}
