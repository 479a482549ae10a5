package blobdb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentCompactAndWrites hammers Put/Get/Delete while compact
// runs repeatedly: no writes may be lost and recovery must see the final
// state.
func TestConcurrentCompactAndWrites(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := db.Table("stress")

	const writers = 8
	const perWriter = 30
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				blob := bytes.Repeat([]byte{byte(w)}, 100+i)
				if err := tab.Put(key, map[string]string{"i": fmt.Sprint(i)}, blob); err != nil {
					errs <- err
					return
				}
				if _, err := tab.Get(key); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := compact(db); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tab.Len() != writers*perWriter {
		t.Fatalf("rows %d, want %d", tab.Len(), writers*perWriter)
	}
	db.Close()

	// Recovery sees everything.
	db2 := diskDB(t, dir)
	defer db2.Close()
	tab2 := db2.Table("stress")
	if tab2.Len() != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", tab2.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			rec, err := tab2.Get(fmt.Sprintf("w%d-k%d", w, i))
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Blob) != 100+i {
				t.Fatalf("blob w%d-k%d has %d bytes", w, i, len(rec.Blob))
			}
		}
	}
}

func TestCompactShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := db.Table("t")
	// Overwrite the same key many times: the WAL grows, the state doesn't.
	blob := bytes.Repeat([]byte("x"), 10_000)
	for i := 0; i < 50; i++ {
		if err := tab.Put("k", nil, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := compact(db); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2 := diskDB(t, dir)
	defer db2.Close()
	rec, err := db2.Table("t").Get("k")
	if err != nil || !bytes.Equal(rec.Blob, blob) {
		t.Fatalf("post-compact state lost: %v", err)
	}
}

func TestDeleteSurvivesCompactAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	db.Table("t").Put("keep", nil, []byte("a"))
	db.Table("t").Put("drop", nil, []byte("b"))
	compact(db)
	db.Table("t").Delete("drop") // delete lands in the post-compact WAL
	db.Close()
	db2 := diskDB(t, dir)
	defer db2.Close()
	if _, err := db2.Table("t").Get("keep"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Table("t").Get("drop"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted row resurrected: %v", err)
	}
}
