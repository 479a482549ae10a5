// Package blobtest is test support for packages that sit on a blobdb
// database.
package blobtest

import (
	"io"
	"testing"

	"repro/internal/blobdb"
)

// VerifyStored is the tripwire behind Version.Gzip's read-only contract:
// every row's stored stream, which staging slices and ships as it lies,
// must still inflate to the length and digest recorded when it was put.
// Fixtures call it from their cleanup, so code anywhere that wrote into a
// stream it was handed fails the test that ran it. A closed database and
// rows deleted during the check are skipped.
func VerifyStored(t testing.TB, db *blobdb.DB) {
	t.Helper()
	for _, name := range db.TableNames() {
		tab := db.Table(name)
		for _, key := range tab.Keys() {
			v, err := tab.Open(key)
			if err != nil {
				continue
			}
			r, err := v.Reader()
			if err == nil {
				_, err = io.Copy(io.Discard, r)
				r.Close()
			}
			if err != nil {
				t.Errorf("blobtest: %s/%s: the stored stream no longer matches its row: %v", name, key, err)
			}
		}
	}
}
