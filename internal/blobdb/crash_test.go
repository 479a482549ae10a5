package blobdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// entryOffsets parses a WAL/segment file and returns the byte offset
// after each whole entry, plus the keys in order.
func entryOffsets(t *testing.T, path string) (offs []int64, keys []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(raw)
	var off int64
	for {
		e, n, err := readEntry(r)
		if err != nil {
			break
		}
		off += n
		offs = append(offs, off)
		keys = append(keys, e.Key)
	}
	return offs, keys
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// liveSegment returns the path of shard 0's highest segment in dir — the
// file a one-shard database is appending to.
func liveSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir, 0)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment of shard 0 in %s: %v", dir, err)
	}
	return filepath.Join(dir, segmentFile(0, segs[len(segs)-1]))
}

// TestCrashRecoveryEveryTruncation kills a shard's live segment at every
// byte boundary inside its final entry, at one shard and at four: every
// earlier (acked) put must recover, only the torn tail may vanish, the
// other shards are untouched, and the truncated log must keep accepting
// appends that survive another reopen.
func TestCrashRecoveryEveryTruncation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src := t.TempDir()
			db, err := Open(Options{Dir: src, WALShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			tab := db.Table("t")
			var keys []string
			for i := 0; i < 24; i++ {
				k := fmt.Sprintf("k%d", i)
				keys = append(keys, k)
				if err := tab.Put(k, map[string]string{"i": fmt.Sprint(i)}, []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Tear the busiest shard's live segment.
			var victim string
			var offs []int64
			var segKeys []string
			for s := 0; s < shards; s++ {
				name := segmentFile(s, 0)
				if o, k := entryOffsets(t, filepath.Join(src, name)); len(o) > len(offs) {
					victim, offs, segKeys = name, o, k
				}
			}
			if len(offs) < 2 {
				t.Fatalf("no shard with >= 2 entries (best %d)", len(offs))
			}
			prevGood, end := offs[len(offs)-2], offs[len(offs)-1]
			lastKey := segKeys[len(segKeys)-1]
			for cut := prevGood + 1; cut < end; cut++ {
				dir := copyDir(t, src)
				if err := os.Truncate(filepath.Join(dir, victim), cut); err != nil {
					t.Fatal(err)
				}
				db, err := Open(Options{Dir: dir, WALShards: shards})
				if err != nil {
					t.Fatalf("cut %d: open: %v", cut, err)
				}
				tab := db.Table("t")
				for _, k := range keys {
					_, err := tab.Stat(k)
					if k == lastKey {
						if err == nil {
							t.Fatalf("cut %d: torn entry %s survived", cut, k)
						}
						continue
					}
					if err != nil {
						t.Fatalf("cut %d: lost acked put %s: %v", cut, k, err)
					}
				}
				// Recovery truncated the torn bytes, so this append must not
				// bury garbage mid-log.
				if err := tab.Put(lastKey, nil, []byte("x")); err != nil {
					t.Fatalf("cut %d: put after recovery: %v", cut, err)
				}
				if err := db.Close(); err != nil {
					t.Fatalf("cut %d: close: %v", cut, err)
				}
				db2, err := Open(Options{Dir: dir, WALShards: shards})
				if err != nil {
					t.Fatalf("cut %d: reopen after append: %v", cut, err)
				}
				if got := db2.Table("t").Len(); got != len(keys) {
					t.Fatalf("cut %d: %d rows after the post-crash append, want %d", cut, got, len(keys))
				}
				db2.Close()
			}
		})
	}
}

// FuzzWALReplay feeds arbitrary bytes to recovery as WAL/segment
// content: replay must either succeed (recovering a prefix and cleanly
// truncating the rest) or report ErrCorrupt — never panic, and never
// silently lose a whole-entry prefix.
func FuzzWALReplay(f *testing.F) {
	entry := func(e *walEntry) []byte {
		var buf bytes.Buffer
		if err := writeEntry(&buf, e); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := entry(&walEntry{Op: "put", Table: "t", Key: "a", Comp: []byte("zz"), RawSize: 2})
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good[:7]...)) // torn tail
	f.Add([]byte("garbage that is not a wal"))
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, 1<<31)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, shards := range []int{1, 2} {
			dir := t.TempDir()
			opts := Options{Dir: dir, WALShards: shards}
			var target string
			if shards == 1 {
				target = filepath.Join(dir, walName)
			} else {
				// Declare the sharded layout, then plant raw as one segment.
				db, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				db.Close()
				target = filepath.Join(dir, segmentFile(0, 0))
			}
			if err := os.WriteFile(target, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			// Count the whole-entry prefix raw decodes to.
			wantEntries, _, _, perr := replayReader(bytes.NewReader(raw), false, func(*walEntry) {})
			db, err := Open(opts)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open: %v (want nil or ErrCorrupt)", err)
				}
				if perr == nil {
					t.Fatalf("clean prefix of %d entries reported corrupt: %v", wantEntries, err)
				}
				continue
			}
			if perr != nil {
				t.Fatalf("corrupt input opened cleanly (parse err %v)", perr)
			}
			db.Close()
		}
	})
}
