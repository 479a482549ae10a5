package metrics

import (
	"sync"
	"testing"
)

type pair struct{ calls, bytes uint64 }

// TestBlockUpdateAllocations: a hot path that counts through a capturing
// closure allocates nothing.
func TestBlockUpdateAllocations(t *testing.T) {
	var b Block[pair]
	n := uint64(3)
	if allocs := testing.AllocsPerRun(1000, func() {
		b.Update(func(p *pair) {
			p.calls++
			p.bytes += n
		})
	}); allocs != 0 {
		t.Fatalf("Update with a capturing closure allocates %v objects, want 0", allocs)
	}
	if got := b.Snapshot(); got.calls == 0 || got.bytes != 3*got.calls {
		t.Fatalf("snapshot %+v", got)
	}
}

// TestBlockSnapshotIsConsistent: fields one Update moves together are
// never seen apart, however many writers and readers race.
func TestBlockSnapshotIsConsistent(t *testing.T) {
	var b Block[pair]
	const writers, updates = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				b.Update(func(p *pair) {
					p.calls++
					p.bytes += 7
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			if got := b.Snapshot(); got.calls != writers*updates || got.bytes != 7*got.calls {
				t.Fatalf("final snapshot %+v", got)
			}
			return
		default:
		}
		if got := b.Snapshot(); got.bytes != 7*got.calls {
			t.Fatalf("torn snapshot %+v", got)
		}
	}
}
