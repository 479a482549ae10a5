// Package blobdb is the appliance's database, standing in for the MySQL
// instance of the paper: "A database stores the uploaded executables"
// (§V). It is a table-oriented blob store. Records hold a metadata map
// plus a gzip-compressed blob — compression is load-bearing for the
// reproduction, because Fig. 6 attributes a CPU peak to "loading and
// decompressing the file from the database".
//
// Durability follows the classic WAL + snapshot recipe: every mutation is
// appended to a write-ahead log before it is applied, Compact folds the
// state into a snapshot and drops the log it covers, and Open replays
// snapshot then log. Opening with an empty directory yields a purely
// in-memory store.
//
// There is one storage engine. Keys hash to N >= 1 shards, each with its
// own lock, its own snapshot (snapshot-<shard>.db), its own segmented WAL
// (wal-<shard>-<seg>.log, rolled at SegmentBytes) and — with GroupCommit
// — its own batcher; compaction works a shard at a time, so the others
// keep serving, and Options.AutoCompact runs it in the background. N is
// a property of the directory, declared by wal-manifest.json: a new
// directory is created with Options.WALShards of them and every later
// Open follows the manifest. A directory in the retired wal.log +
// snapshot.db layout is imported once, at Open (see importStock).
package blobdb

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sizedio"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// File names inside the database directory, beside the per-shard
// wal-<shard>-<seg>.log / snapshot-<shard>.db. walName and snapshotName
// are the retired layout's: only the importer reads (and then unlinks)
// them, nothing creates either.
const (
	walName      = "wal.log"
	snapshotName = "snapshot.db"
	manifestName = "wal-manifest.json"
)

// MaxBlobBytes bounds one stored blob.
const MaxBlobBytes = 256 << 20

// DefaultSegmentBytes is the live-segment roll threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 16 << 20

// DefaultCompactEvery is the background compactor's scan cadence when
// Options.CompactEvery is zero.
const DefaultCompactEvery = time.Second

// opFloor marks a snapshot's coverage: segments with an index below the
// recorded floor are superseded by the snapshot and skipped (and
// removed) at replay, which is what makes segment retirement crash-safe
// in any unlink order. A snapshot without one covers nothing (floor 0).
const opFloor = "floor"

// Errors.
var (
	ErrNotFound  = errors.New("blobdb: no such record")
	ErrTooLarge  = errors.New("blobdb: blob exceeds size limit")
	ErrClosed    = errors.New("blobdb: database closed")
	ErrCorrupt   = errors.New("blobdb: corrupt log or snapshot")
	ErrBadrecord = errors.New("blobdb: record needs a key")
)

// Record is a stored row, returned with the blob decompressed.
type Record struct {
	Key string
	// Meta is the caller's own copy.
	Meta map[string]string
	// Blob is the decompressed blob (nil from Stat), shared with the blob
	// cache and every other reader of the row version: read-only, nobody
	// writes to it, ever. It stays valid and unchanged while held, whatever
	// happens to the row (re-Put, Delete, cache eviction, Close).
	Blob     []byte
	StoredAt time.Time
	// RawSize and CompressedSize are the blob's and its gzip stream's length.
	RawSize        int
	CompressedSize int
	// Gen is the row's generation: every Put or SetMeta of the key installs
	// a higher one, so two reads with equal Gen saw the same bytes.
	Gen uint64
}

// record renders r for the caller, with blob as its Blob.
func (r *row) record(key string, blob []byte) *Record {
	return &Record{
		Key: key, Meta: cloneMeta(r.meta), Blob: blob, StoredAt: r.storedAt,
		RawSize: r.rawSize, CompressedSize: len(r.comp), Gen: r.gen,
	}
}

// row is the in-memory representation (blob kept compressed).
type row struct {
	meta     map[string]string
	comp     []byte // gzip-compressed blob
	rawSize  int
	storedAt time.Time
	// gen is the row's generation, bumped on every put; the decompressed-
	// blob cache keys on it so stale inflations never serve. Generations
	// are per shard — a key always hashes to the same shard, so they stay
	// monotonic per key.
	gen uint64
	// seg is the WAL segment holding the row's latest put (-1 when the
	// row came from a snapshot); superseding the row decrements that
	// segment's live count so the compactor can retire fully-dead
	// segments without rewriting anything.
	seg int
	// sum is the SHA-256 of the raw bytes, recorded at Put and valid once
	// sumKnown is set. A row replayed from a log written before entries
	// carried it has none until digest is asked: rows are shared, so that
	// one late write is made under sumMu and published through sumKnown.
	sum      [sha256.Size]byte
	sumKnown atomic.Bool
	sumMu    sync.Mutex
}

// digest returns the SHA-256 of the raw bytes. A row without one pays a
// streaming inflate of its stored stream for it, once; a stream that does
// not inflate to rawSize bytes is ErrCorrupt every time it is asked.
func (r *row) digest() ([sha256.Size]byte, error) {
	if !r.sumKnown.Load() {
		r.sumMu.Lock()
		defer r.sumMu.Unlock()
		if !r.sumKnown.Load() {
			sr := newStoredReader(r)
			defer sr.Close()
			if _, err := io.Copy(io.Discard, sr); err != nil {
				return [sha256.Size]byte{}, err
			}
			sr.sum.Sum(r.sum[:0])
			r.sumKnown.Store(true)
		}
	}
	return r.sum, nil
}

// putEntry renders the row as the log entry that installs it — what
// SetMeta and the snapshot writers log to carry a row forward.
func (r *row) putEntry(table, key string, meta map[string]string, storedAt time.Time) *walEntry {
	e := &walEntry{Op: "put", Table: table, Key: key, Meta: meta, Comp: r.comp, RawSize: r.rawSize, StoredAt: storedAt}
	if r.sumKnown.Load() {
		e.Sum = r.sum[:]
	}
	return e
}

// walEntry is one log record.
type walEntry struct {
	Op       string            `json:"op"` // "put" | "delete" | "floor"
	Table    string            `json:"table"`
	Key      string            `json:"key"`
	Meta     map[string]string `json:"meta,omitempty"`
	Comp     []byte            `json:"comp,omitempty"` // gzip bytes (JSON base64)
	RawSize  int               `json:"raw_size,omitempty"`
	Sum      []byte            `json:"sha256,omitempty"` // of the raw bytes; older logs carry none
	StoredAt time.Time         `json:"stored_at,omitempty"`

	sum [sha256.Size]byte // Put's Sum points here: the digest costs it no object
}

// DB is the database handle. All methods are safe for concurrent use.
type DB struct {
	dir    string
	clock  vtime.Clock
	probe  *metrics.Probe
	cost   metrics.Cost
	tracer *trace.Tracer

	segLimit int64
	shards   []*shard

	cache *blobCache // decompressed-blob LRU; nil when disabled
	comp  *compactor // background compactor; nil when disabled

	closeMu sync.Mutex
	closed  bool
}

// Options configures Open.
type Options struct {
	// Dir is the storage directory; empty means in-memory only.
	Dir string
	// Clock timestamps records; nil means real time.
	Clock vtime.Clock
	// Probe accounts CPU (compress/decompress) and disk traffic; may be nil.
	Probe *metrics.Probe
	// Cost supplies the compression CPU rates; zero rates disable burning.
	Cost metrics.Cost
	// BlobCacheBytes bounds a decompressed-blob LRU in front of Get; zero
	// disables it. Nothing in the product calls Get since staging reads
	// through Open, so only cmd/bench and tests set this (ROADMAP 4b).
	BlobCacheBytes int64
	// GroupCommit batches concurrent WAL appends into one write with a
	// single fsync (append-before-apply preserved). Off by default: a
	// mutation is then one unsynced write, as the paper's MySQL stand-in
	// did. Only effective for persistent databases. Each shard runs its
	// own committer, so batches on different shards flush in parallel.
	GroupCommit bool
	// WALShards is the shard count a new (or imported) directory is
	// created with; 0 means 1. Keys hash to a shard, and each shard has
	// its own lock and its own segmented log, so concurrent puts to
	// different shards never contend. An existing directory keeps the
	// count its manifest declares, whatever is asked for here: there is
	// no re-sharding, and asking for a different count is not an error.
	// An in-memory database simply gets this many lock shards.
	WALShards int
	// SegmentBytes rolls a shard's live WAL segment once it grows past
	// this size; sealed segments are the unit the compactor retires.
	// Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// AutoCompact runs a background compactor that incrementally retires
	// sealed segments whose entries are all superseded and snapshots one
	// shard per scan when its sealed garbage passes 50%, so nobody has to
	// call Compact. Persistent databases only, at any shard count.
	AutoCompact bool
	// CompactEvery is the background compactor's scan cadence (real
	// time, not the virtual clock); zero means DefaultCompactEvery.
	CompactEvery time.Duration
	// Tracer records db.replay spans at Open and db.compact spans per
	// compaction; nil records nothing.
	Tracer *trace.Tracer
}

// Open opens (creating or recovering) a database.
func Open(opts Options) (*DB, error) {
	clock := opts.Clock
	if clock == nil {
		clock = vtime.Real{}
	}
	n := max(1, opts.WALShards)
	segLimit := opts.SegmentBytes
	if segLimit <= 0 {
		segLimit = DefaultSegmentBytes
	}
	db := &DB{
		dir:      opts.Dir,
		clock:    clock,
		probe:    opts.Probe,
		cost:     opts.Cost,
		tracer:   opts.Tracer,
		segLimit: segLimit,
	}
	if opts.BlobCacheBytes > 0 {
		db.cache = newBlobCache(opts.BlobCacheBytes)
	}
	if opts.Dir == "" {
		db.shards = newShards(db, n)
		return db, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobdb: create dir: %w", err)
	}
	if err := db.recover(n); err != nil {
		return nil, err
	}
	if opts.GroupCommit {
		for _, s := range db.shards {
			s.gc = startGroupCommitter(s)
		}
	}
	if opts.AutoCompact {
		every := opts.CompactEvery
		if every <= 0 {
			every = DefaultCompactEvery
		}
		db.comp = startCompactor(db, every)
	}
	return db, nil
}

// Table returns a handle for the named table (created on first write).
func (db *DB) Table(name string) *Table { return &Table{db: db, name: name} }

// TableNames lists tables with at least one row, sorted.
func (db *DB) TableNames() []string {
	seen := map[string]bool{}
	for _, s := range db.shards {
		s.mu.RLock()
		for name, rows := range s.tables {
			if len(rows) > 0 {
				seen[name] = true
			}
		}
		s.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close stops the compactor, flushes the group committers, and closes
// every WAL. The first error encountered is returned and the database is
// left poisoned either way: further use returns ErrClosed, and a second
// Close returns nil.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.comp != nil {
		db.comp.halt() // waits for any in-flight sweep
	}
	for _, s := range db.shards {
		if s.gc != nil {
			s.gc.shutdown() // flushes everything queued before the WAL closes
		}
	}
	var first error
	for _, s := range db.shards {
		s.mu.Lock()
		s.closed = true
		if s.wal != nil {
			if err := s.wal.Sync(); err != nil && first == nil {
				first = err
			}
			if err := s.wal.Close(); err != nil && first == nil {
				first = err
			}
			s.wal = nil
		}
		s.mu.Unlock()
	}
	return first
}

// Compact folds current state into snapshots and retires the segments
// they cover, one shard at a time: only the seal and the state copy run
// under that shard's lock, so the other shards — and, for most of it,
// that one — keep serving. A no-op on an in-memory database.
func (db *DB) Compact() error {
	for _, s := range db.shards {
		if _, err := s.compactSnapshot(); err != nil {
			return err
		}
	}
	return nil
}

// Table is a handle on one table.
type Table struct {
	db   *DB
	name string
}

// Put stores (or replaces) a record. The blob is gzip-compressed; the
// compression CPU and the WAL disk write are accounted to the probe.
func (t *Table) Put(key string, meta map[string]string, blob []byte) error {
	if len(blob) > MaxBlobBytes {
		return ErrTooLarge
	}
	// Compress outside the lock: CPU-bound.
	comp, err := compress(blob)
	if err != nil {
		return err
	}
	return t.PutStored(key, meta, &Stored{Gzip: comp, RawSize: len(blob), Sum: sha256.Sum256(blob)})
}

// PutStored is the commit half of every put, and all of one whose blob was
// deflated and hashed as it arrived (ReadStored): the row keeps s.Gzip
// itself, and the probe is charged for compressing s.RawSize bytes.
func (t *Table) PutStored(key string, meta map[string]string, s *Stored) error {
	if key == "" {
		return ErrBadrecord
	}
	db := t.db
	db.probe.BurnFor(s.RawSize, db.cost.CompressBps)
	e := &walEntry{
		Op: "put", Table: t.name, Key: key, Meta: cloneMeta(meta),
		Comp: s.Gzip, RawSize: s.RawSize, StoredAt: db.clock.Now(), sum: s.Sum,
	}
	e.Sum = e.sum[:]
	return db.shardFor(t.name, key).commit(e)
}

// SetMeta replaces a record's metadata and leaves its blob alone: the
// logged put entry reuses the row's stored gzip stream, so nothing is
// inflated or compressed again. Everything else is a Put of the same
// blob — a new StoredAt, a new generation, the same bytes on disk.
func (t *Table) SetMeta(key string, meta map[string]string) error {
	db := t.db
	r, err := t.row(key)
	if err != nil {
		return err
	}
	// The cost model charges what the Get and Put this stands in for
	// did (row read, inflate, re-compress), so virtual-time results do
	// not move; only the real work is gone.
	db.probe.DiskRead(len(r.comp))
	db.probe.BurnFor(r.rawSize, db.cost.DecompressBps)
	db.probe.BurnFor(r.rawSize, db.cost.CompressBps)
	return db.shardFor(t.name, key).commit(r.putEntry(t.name, key, cloneMeta(meta), db.clock.Now()))
}

func cloneMeta(meta map[string]string) map[string]string {
	out := make(map[string]string, len(meta))
	for k, v := range meta {
		out[k] = v
	}
	return out
}

// Get returns the record with the blob decompressed, whole. The disk read
// of the compressed bytes and the decompression CPU are accounted. Its
// callers are cmd/bench's rungs and tests: the product reads through Open.
func (t *Table) Get(key string) (*Record, error) {
	db := t.db
	r, err := t.row(key)
	if err != nil {
		return nil, err
	}
	cacheKey := t.name + "\x00" + key
	if db.cache != nil {
		if blob, ok := db.cache.get(cacheKey, r.gen); ok {
			return r.record(key, blob), nil // no disk read, no inflate, no modelled cost
		}
	}
	db.probe.DiskRead(len(r.comp))
	db.probe.BurnFor(r.rawSize, db.cost.DecompressBps)
	in, err := openInflater(r.comp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// One buffer of the recorded size, filled in place (the caller's view
	// and the cache's entry); reading on to EOF checks the gzip trailer.
	limit := int64(min(r.rawSize, MaxBlobBytes))
	blob, err := sizedio.ReadAll(&in.zr, int64(r.rawSize), limit)
	in.release()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(blob) != r.rawSize {
		return nil, fmt.Errorf("%w: %s/%s inflates to %d bytes, row says %d", ErrCorrupt, t.name, key, len(blob), r.rawSize)
	}
	if db.cache != nil {
		db.cache.put(cacheKey, r.gen, blob)
	}
	return r.record(key, blob), nil
}

// GetCompressed returns the stored gzip bytes (Version.Gzip: the row's own
// slice, read-only) and the decompressed size, and accounts the disk read.
// Its callers are cmd/bench's rungs and tests.
func (t *Table) GetCompressed(key string) (comp []byte, rawSize int, err error) {
	r, err := t.row(key)
	if err != nil {
		return nil, 0, err
	}
	t.db.probe.DiskRead(len(r.comp))
	return r.comp, r.rawSize, nil
}

// BlobCacheStats reports the decompressed-blob LRU's counters; all zero
// when the cache is disabled.
func (db *DB) BlobCacheStats() (hits, misses, bytes int64) {
	if db.cache == nil {
		return 0, 0, 0
	}
	return db.cache.stats()
}

// WALStats reports WAL write and fsync call counts, summed across
// shards. With group commit enabled, writes stay below the mutation
// count under concurrency.
func (db *DB) WALStats() (writes, syncs int64) {
	for _, s := range db.shards {
		s.mu.RLock()
		writes += s.walWrites
		syncs += s.walSyncs
		s.mu.RUnlock()
	}
	return writes, syncs
}

// ShardStats is one shard's storage counters.
type ShardStats struct {
	Shard       int   `json:"shard"`
	Segments    int   `json:"segments"`
	Bytes       int64 `json:"bytes"`
	LiveEntries int64 `json:"live_entries"`
	DeadEntries int64 `json:"dead_entries"`
	WALWrites   int64 `json:"wal_writes"`
	WALSyncs    int64 `json:"wal_syncs"`
}

// Stats is the storage engine's monitoring surface.
type Stats struct {
	Shards    int            `json:"shards"`
	WALWrites int64          `json:"wal_writes"`
	WALSyncs  int64          `json:"wal_syncs"`
	Segments  int            `json:"segments"`
	Bytes     int64          `json:"bytes"`
	PerShard  []ShardStats   `json:"per_shard,omitempty"`
	Compactor CompactorStats `json:"compactor"`
}

// Stats reports per-shard WAL/segment counters and the background
// compactor's totals.
func (db *DB) Stats() Stats {
	st := Stats{Shards: len(db.shards)}
	for _, s := range db.shards {
		ss := s.stats()
		st.WALWrites += ss.WALWrites
		st.WALSyncs += ss.WALSyncs
		st.Segments += ss.Segments
		st.Bytes += ss.Bytes
		if db.dir != "" {
			st.PerShard = append(st.PerShard, ss)
		}
	}
	if db.comp != nil {
		st.Compactor = db.comp.stats.Snapshot()
	}
	return st
}

// Stat returns metadata without touching the blob (no decompression).
func (t *Table) Stat(key string) (*Record, error) {
	r, err := t.row(key)
	if err != nil {
		return nil, err
	}
	return r.record(key, nil), nil
}

// row returns the row now stored under key. Rows are immutable once
// applied, so it stays readable after the shard lock is gone.
func (t *Table) row(key string) (*row, error) {
	s := t.db.shardFor(t.name, key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	r, ok := s.tables[t.name][key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
	}
	return r, nil
}

// Delete removes a record.
func (t *Table) Delete(key string) error {
	entry := &walEntry{Op: "delete", Table: t.name, Key: key}
	s := t.db.shardFor(t.name, key)
	if s.gc != nil {
		if _, err := t.row(key); err != nil {
			return err
		}
		return s.gc.commit(entry)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.tables[t.name][key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
	}
	if err := s.log(entry); err != nil {
		return err
	}
	s.apply(entry, s.seg)
	return nil
}

// Keys lists the table's keys, sorted.
func (t *Table) Keys() []string {
	var out []string
	for _, s := range t.db.shards {
		s.mu.RLock()
		for k := range s.tables[t.name] {
			out = append(out, k)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len reports the number of rows.
func (t *Table) Len() int {
	n := 0
	for _, s := range t.db.shards {
		s.mu.RLock()
		n += len(s.tables[t.name])
		s.mu.RUnlock()
	}
	return n
}

func (db *DB) shardFor(table, key string) *shard {
	return db.shards[shardIndex(table, key, len(db.shards))]
}

// shardIndex routes a key to one of n shards: FNV-1a over table and key,
// with a separator so ("ab","c") and ("a","bc") differ. Stable across
// restarts and releases — the on-disk grouping depends on it.
func shardIndex(table, key string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(table); i++ {
		h ^= uint32(table[i])
		h *= 16777619
	}
	h *= 16777619 // separator byte 0
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// --- fault-injection seams ---

// walFile is what a shard writes its log through; production code wraps
// *os.File, tests swap newWALFile to inject write/sync/close faults.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

var newWALFile = func(f *os.File) walFile { return f }

// fsyncDir makes a directory-entry change (rename, create, unlink)
// durable. A package variable so tests can count calls or inject faults.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- codec free lists ---

// The gzip codecs and encode buffers live on free lists a collection does
// not empty: a BestSpeed gzip writer is ~1.2 MB of state, and a 256 KB
// publish allocates enough that a GC every few dozen of them took the
// writer away. The compressor's scratch streams and the WAL frames keep
// a list each, so neither regrows a buffer sized for the other. A codec
// goes back detached from the stream it last touched.
var (
	gzipWriters = sizedio.NewFreeList(func() *gzip.Writer {
		w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return w
	})
	inflaters = sizedio.NewFreeList(func() *inflater { return new(inflater) })
	scratches = sizedio.NewFreeList(func() *bytes.Buffer { return new(bytes.Buffer) })
	frames    = sizedio.NewFreeList(func() *bytes.Buffer { return new(bytes.Buffer) })
)

// compress gzips blob.
func compress(blob []byte) ([]byte, error) {
	return deflate(len(blob), func(zw io.Writer) error {
		_, err := zw.Write(blob)
		return err
	})
}

// deflate has fill write rawHint bytes, or so, to a kept gzip writer over
// a kept scratch buffer and returns one exact-size copy of the stream:
// the only allocation a row's stored stream costs.
func deflate(rawHint int, fill func(zw io.Writer) error) ([]byte, error) {
	scratch := scratches.Get()
	defer scratches.Put(scratch)
	scratch.Reset()
	// Room for the worst case (stored blocks: five bytes per 64 KB, plus
	// header and trailer), so a fresh scratch buffer comes in one
	// allocation instead of doubling its way up from 64 bytes.
	scratch.Grow(rawHint + rawHint>>10 + 64)
	// BestSpeed: the compression *cost model* lives in Put's probe burn;
	// the real gzip pass only needs to shrink the stored bytes, and
	// keeping it cheap keeps the host time of experiment runs down.
	zw := gzipWriters.Get()
	defer func() {
		zw.Reset(io.Discard)
		gzipWriters.Put(zw)
	}()
	zw.Reset(scratch)
	if err := fill(zw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(scratch.Bytes()), nil
}

// inflater is a gzip reader over a source it owns, so a kept one holds no
// row's stream. openInflater's caller gives it back with release.
type inflater struct {
	src bytes.Reader
	zr  gzip.Reader
}

func openInflater(comp []byte) (*inflater, error) {
	in := inflaters.Get()
	in.src.Reset(comp)
	if err := in.zr.Reset(&in.src); err != nil {
		in.release()
		return nil, err
	}
	return in, nil
}

func (in *inflater) release() {
	in.src.Reset(nil)
	inflaters.Put(in)
}

// --- wire format: 4-byte big-endian length + JSON ---

// appendEntry encodes one frame onto buf in place: the JSON goes
// straight behind a four-byte gap that is back-patched with its length,
// and the gzip stream's base64 straight into its place in that JSON, not
// through encoding/json's own pooled buffer, which a GC drops and the
// next entry regrows. The bytes are exactly json.Marshal's; Encode's
// trailing newline is cut. On error buf is left as it was.
func appendEntry(buf *bytes.Buffer, e *walEntry) error {
	start := buf.Len()
	var gap [4]byte
	buf.Write(gap[:])
	// e is its caller's alone while it is encoded, so the stand-in goes in
	// its Comp and back out: a copy of e would escape to the heap.
	comp := e.Comp
	if len(comp) > 0 {
		e.Comp = compStandIn
	}
	err := json.NewEncoder(buf).Encode(e)
	e.Comp = comp
	if err != nil {
		buf.Truncate(start)
		return err
	}
	buf.Truncate(buf.Len() - 1)
	if len(comp) > 0 {
		// The last match is comp's own: every later field is a number or
		// a string with no quote in it.
		at := bytes.LastIndex(buf.Bytes(), []byte(`"comp":"AA=="`)) + len(`"comp":"`)
		n := base64.StdEncoding.EncodedLen(len(comp)) - len("AA==")
		buf.Grow(n)
		buf.Write(buf.AvailableBuffer()[:n])
		b := buf.Bytes()
		copy(b[at+4+n:], b[at+4:len(b)-n])
		base64.StdEncoding.Encode(b[at:], comp)
	}
	binary.BigEndian.PutUint32(buf.Bytes()[start:], uint32(buf.Len()-start-4))
	return nil
}

// compStandIn is what appendEntry has encoding/json write for a stream
// ("AA=="), to be replaced by the stream itself.
var compStandIn = []byte{0}

// writeEntry frames one entry onto w (the snapshot writers' path)
// through a kept buffer.
func writeEntry(w io.Writer, e *walEntry) error {
	buf := frames.Get()
	defer frames.Put(buf)
	buf.Reset()
	if err := appendEntry(buf, e); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readEntry decodes one entry and reports its encoded size. Short reads
// surface as io.ErrUnexpectedEOF (a torn tail); bad JSON or an absurd
// length surface as ErrCorrupt.
func readEntry(r io.Reader) (*walEntry, int64, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxBlobBytes*2 {
		return nil, 0, fmt.Errorf("%w: entry of %d bytes", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, io.ErrUnexpectedEOF
	}
	var e walEntry
	if err := json.Unmarshal(buf, &e); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &e, int64(4 + n), nil
}
