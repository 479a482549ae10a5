package metrics

import "sync"

// Block is a stats struct kept live behind one lock: every counter of T
// is declared once, as T's field, and every snapshot is one consistent
// copy, so counters updated together are read together. The zero value
// is ready to use.
type Block[T any] struct {
	mu sync.Mutex
	v  T
}

// Update applies f to the live value under the lock. f must not block
// or call back into the Block. A closure that captures its arguments
// does not escape, so updating allocates nothing.
func (b *Block[T]) Update(f func(*T)) {
	b.mu.Lock()
	f(&b.v)
	b.mu.Unlock()
}

// Snapshot returns a copy of the live value.
func (b *Block[T]) Snapshot() T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.v
}
