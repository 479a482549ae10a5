// Chunked, content-addressed staging: the reproduction of real
// GridFTP's partial-transfer / restart-marker / data-reduction features.
//
// A client cuts a file into fixed-size chunks, addresses each by its
// SHA-256 digest, and drives three endpoints:
//
//	POST /ftp/chunks/have   which of these digests is the server missing?
//	PUT  /ftp/chunk/<digest> ship one chunk (integrity-checked, idempotent)
//	POST /ftp/commit        manifest -> assemble, verify, register in store
//
// The chunk store is content-addressed and shared across identities:
// possession of a digest acts as the capability (knowing the hash of a
// chunk is equivalent to knowing the chunk), which is what buys
// cross-service and cross-version dedup. Commit is where ownership is
// asserted: the assembled file lands in the site store under the
// authenticated identity, subject to the usual quota.
//
// Chunks address the *wire* bytes: when the client negotiates gzip via
// the X-Grid-Encoding header the digests cover the compressed stream and
// the server inflates at commit. Stock servers answer 400 to the chunk
// paths (they contain "/"), which clients treat as "unsupported" and
// fall back to a plain PUT.
package gridftp

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/errcode"
	"repro/internal/jsonwarm"
	"repro/internal/sizedio"
)

// EncodingHeader negotiates the wire encoding of a chunked transfer
// ("gzip" or absent). It rides on the commit manifest, not the chunks.
const EncodingHeader = "X-Grid-Encoding"

// Chunked-transfer limits.
const (
	// DefaultChunkBytes is the chunk size when the caller passes 0.
	DefaultChunkBytes = 256 << 10
	// MaxChunkBytes bounds one chunk PUT.
	MaxChunkBytes = 8 << 20
	// MaxManifestChunks bounds one manifest (and one have-probe).
	MaxManifestChunks = 4096
	// defaultChunkStoreBytes caps the per-server chunk cache; oldest
	// chunks are evicted first. Eviction is safe: a client that commits
	// against an evicted chunk re-ships it on retry.
	defaultChunkStoreBytes = 512 << 20
)

// chunkStore holds wire chunks keyed by hex SHA-256 digest, bounded by a
// byte cap with FIFO eviction.
type chunkStore struct {
	mu    sync.Mutex
	data  map[string][]byte
	order []string
	bytes int64
	cap   int64
}

func newChunkStore(capBytes int64) *chunkStore {
	return &chunkStore{data: make(map[string][]byte), cap: capBytes}
}

// put stores a chunk (idempotent) and reports whether it was new.
func (cs *chunkStore) put(digest string, chunk []byte) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := cs.data[digest]; ok {
		return false
	}
	cp := make([]byte, len(chunk))
	copy(cp, chunk)
	cs.data[digest] = cp
	cs.order = append(cs.order, digest)
	cs.bytes += int64(len(cp))
	for cs.bytes > cs.cap && len(cs.order) > 1 {
		old := cs.order[0]
		cs.order = cs.order[1:]
		if victim, ok := cs.data[old]; ok {
			cs.bytes -= int64(len(victim))
			delete(cs.data, old)
		}
	}
	return true
}

func (cs *chunkStore) get(digest string) ([]byte, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	chunk, ok := cs.data[digest]
	return chunk, ok
}

func (cs *chunkStore) has(digest string) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	_, ok := cs.data[digest]
	return ok
}

// validDigest reports whether s is a well-formed lowercase hex SHA-256.
func validDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(haveRequest{}, haveReply{}, chunkManifest{}, fetchRequest{}) }

// haveRequest is the dedup/resume probe body.
type haveRequest struct {
	Digests []string `json:"digests"`
}

// haveReply lists the digests the server does not hold.
type haveReply struct {
	Missing []string `json:"missing"`
}

// chunkManifest is the commit body: the ordered chunk list that
// reassembles one file. Duplicate digests are legal (intra-file dedup).
type chunkManifest struct {
	Name string `json:"name"`
	// Encoding is "" (chunks carry the raw file) or "gzip" (chunks carry
	// the gzip stream; the server inflates at commit).
	Encoding   string   `json:"encoding,omitempty"`
	FileSha256 string   `json:"file_sha256"`
	Chunks     []string `json:"chunks"`
}

// parseHaveRequest decodes and validates a have-probe body. Split out so
// fuzz tests can drive the decoder directly.
func parseHaveRequest(body []byte) (*haveRequest, error) {
	var req haveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if len(req.Digests) == 0 {
		return nil, fmt.Errorf("%w: empty digest list", ErrBadInput)
	}
	if len(req.Digests) > MaxManifestChunks {
		return nil, fmt.Errorf("%w: %d digests exceeds limit %d", ErrBadInput, len(req.Digests), MaxManifestChunks)
	}
	for _, d := range req.Digests {
		if !validDigest(d) {
			return nil, fmt.Errorf("%w: malformed digest %q", ErrBadInput, d)
		}
	}
	return &req, nil
}

// parseManifest decodes and validates a commit body. Split out so fuzz
// tests can drive the decoder directly.
func parseManifest(body []byte) (*chunkManifest, error) {
	var m chunkManifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if m.Name == "" || strings.Contains(m.Name, "/") {
		return nil, fmt.Errorf("%w: bad file name", ErrBadInput)
	}
	if m.Encoding != "" && m.Encoding != "gzip" {
		return nil, fmt.Errorf("%w: unsupported encoding %q", ErrBadInput, m.Encoding)
	}
	if !validDigest(m.FileSha256) {
		return nil, fmt.Errorf("%w: malformed file checksum", ErrBadInput)
	}
	if len(m.Chunks) == 0 {
		return nil, fmt.Errorf("%w: empty chunk list", ErrBadInput)
	}
	if len(m.Chunks) > MaxManifestChunks {
		return nil, fmt.Errorf("%w: %d chunks exceeds limit %d", ErrBadInput, len(m.Chunks), MaxManifestChunks)
	}
	for _, d := range m.Chunks {
		if !validDigest(d) {
			return nil, fmt.Errorf("%w: malformed chunk digest %q", ErrBadInput, d)
		}
	}
	return &m, nil
}

// haveChunks answers the dedup/resume probe: which of these digests does
// the server not hold? The request body (not the chunk data) is bound
// into the auth token.
func (s *Server) haveChunks(w http.ResponseWriter, r *http.Request) *errcode.Refusal {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, "gridftp: read have request: "+err.Error())
	}
	req, err := parseHaveRequest(body)
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, err.Error())
	}
	sum := sha256.Sum256(body)
	if _, err := s.authenticate(r, signPayload("CHUNK-HAVE", "", hex.EncodeToString(sum[:]))); err != nil {
		return errcode.Refuse(http.StatusForbidden, err.Error())
	}
	missing := make([]string, 0, len(req.Digests))
	seen := make(map[string]bool, len(req.Digests))
	for _, d := range req.Digests {
		if seen[d] {
			continue
		}
		seen[d] = true
		if !s.chunks.has(d) {
			missing = append(missing, d)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(haveReply{Missing: missing})
	return nil
}

// putChunk stores one wire chunk under its digest. Integrity-checked
// (the body must hash to the digest in the path) and idempotent: a
// re-shipped chunk answers 201 again without rewriting.
func (s *Server) putChunk(w http.ResponseWriter, r *http.Request, digest string) *errcode.Refusal {
	if !validDigest(digest) {
		return errcode.Refuse(http.StatusBadRequest, ErrBadInput.Error()+": malformed chunk digest")
	}
	body, err := sizedio.ReadAll(r.Body, r.ContentLength, MaxChunkBytes)
	if errors.Is(err, sizedio.ErrTooLarge) {
		return errcode.Refuse(http.StatusRequestEntityTooLarge, "gridftp: chunk too large")
	}
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, "gridftp: read chunk: "+err.Error())
	}
	if len(body) == 0 {
		return errcode.Refuse(http.StatusBadRequest, ErrBadInput.Error()+": empty chunk")
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return errcode.Refuse(http.StatusBadRequest, fmt.Sprintf("%v: chunk hashes to %s not %s", ErrChecksum, got, digest))
	}
	if _, err := s.authenticate(r, signPayload("CHUNK-PUT", digest, "")); err != nil {
		return errcode.Refuse(http.StatusForbidden, err.Error())
	}
	s.chunks.put(digest, body)
	w.Header().Set(ChecksumHeader, digest)
	w.WriteHeader(http.StatusCreated)
	return nil
}

// commit assembles a manifest's chunks into one file, inflates it when
// the manifest negotiated gzip, verifies the whole-file SHA-256, and
// registers the result in the site store under the authenticated
// identity. This is the only chunked operation that takes ownership.
func (s *Server) commit(w http.ResponseWriter, r *http.Request) *errcode.Refusal {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, "gridftp: read commit request: "+err.Error())
	}
	m, err := parseManifest(body)
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, err.Error())
	}
	id, err := s.authenticate(r, signPayload("CHUNK-COMMIT", m.Name, m.FileSha256))
	if err != nil {
		return errcode.Refuse(http.StatusForbidden, err.Error())
	}
	var wire bytes.Buffer
	for _, d := range m.Chunks {
		chunk, ok := s.chunks.get(d)
		if !ok {
			return errcode.Refuse(http.StatusConflict, fmt.Sprintf("%v: missing chunk %s", ErrNoChunk, d))
		}
		if wire.Len()+len(chunk) > MaxFileBytes {
			return errcode.Refuse(http.StatusRequestEntityTooLarge, "gridftp: assembled file too large")
		}
		wire.Write(chunk)
	}
	data := wire.Bytes()
	if m.Encoding == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return errcode.Refuse(http.StatusBadRequest, ErrBadInput.Error()+": bad gzip stream: "+err.Error())
		}
		inflated, err := io.ReadAll(io.LimitReader(zr, MaxFileBytes+1))
		if closeErr := zr.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return errcode.Refuse(http.StatusBadRequest, ErrBadInput.Error()+": bad gzip stream: "+err.Error())
		}
		if len(inflated) > MaxFileBytes {
			return errcode.Refuse(http.StatusRequestEntityTooLarge, "gridftp: inflated file too large")
		}
		data = inflated
	}
	sum := sha256.Sum256(data)
	checksum := hex.EncodeToString(sum[:])
	if checksum != m.FileSha256 {
		return errcode.Refuse(http.StatusBadRequest, fmt.Sprintf("%v: assembled file hashes to %s not %s", ErrChecksum, checksum, m.FileSha256))
	}
	if err := s.store.Put(id, m.Name, data); err != nil {
		return errcode.Refuse(http.StatusInsufficientStorage, err.Error())
	}
	w.Header().Set(ChecksumHeader, checksum)
	w.WriteHeader(http.StatusCreated)
	return nil
}
