// Package blobtest is test support for packages that sit on a blobdb
// database.
package blobtest

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"repro/internal/blobdb"
)

// VerifyBlobCache is the tripwire behind Record.Blob's read-only
// contract: every blob the database serves — the blob cache's own slice
// where it holds one — must still equal a fresh inflate of its stored row.
// Fixtures call it from their cleanup, so code anywhere that wrote into a
// blob it was handed fails the test that ran it. A closed database and
// rows that move during the check are skipped.
func VerifyBlobCache(t testing.TB, db *blobdb.DB) {
	t.Helper()
	for _, name := range db.TableNames() {
		tab := db.Table(name)
		for _, key := range tab.Keys() {
			rec, err := tab.Get(key)
			if err != nil {
				continue
			}
			comp, _, gen, err := tab.GetCompressedGen(key)
			if err != nil || gen != rec.Gen {
				continue
			}
			zr, err := gzip.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Errorf("blobtest: %s/%s: stored stream: %v", name, key, err)
				continue
			}
			fresh, err := io.ReadAll(zr)
			if err != nil {
				t.Errorf("blobtest: %s/%s: stored stream: %v", name, key, err)
			} else if !bytes.Equal(fresh, rec.Blob) {
				t.Errorf("blobtest: %s/%s: the served blob no longer matches its row: something wrote into a shared Record.Blob", name, key)
			}
		}
	}
}
