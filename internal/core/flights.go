package core

import "sync"

// flights single-flights work by key: a caller that arrives while a call
// for its key is in flight waits for that call's result instead of
// starting its own. A leader that fails wakes its waiters and exactly
// one of them takes over, so a stampede cannot come back through the
// retry path. The map lives under the caller's lock, the one that guards
// whatever cache sits in front of the flights.
type flights[K comparable, V any] map[K]*flight[V]

// flight is one call in the air. v and err are written by the leader
// before done closes and only read after; waiters (under the caller's
// lock) counts the arrivals parked on it, which tests use as the barrier
// that makes overlap deterministic.
type flight[V any] struct {
	done    chan struct{}
	v       V
	err     error
	waiters int
}

// do returns cached's answer when it has one (cached may be nil), else
// the result of the flight for key, leading it with run if none is in the
// air. cached is called with mu held, run without; a run that feeds a
// cache stores its result before it returns, so no caller finds neither
// the flight nor the fresh entry. joined reports a result taken from
// another caller's successful flight. A nil fl shares no flight: each
// caller cached does not answer runs its own.
func (fl flights[K, V]) do(mu *sync.Mutex, key K, cached func() (V, bool), run func() (V, error)) (v V, joined bool, err error) {
	for {
		mu.Lock()
		if cached != nil {
			if v, ok := cached(); ok {
				mu.Unlock()
				return v, false, nil
			}
		}
		if fl == nil {
			mu.Unlock()
			v, err = run()
			return v, false, err
		}
		if f := fl[key]; f != nil {
			f.waiters++
			mu.Unlock()
			<-f.done
			if f.err == nil {
				return f.v, true, nil
			}
			continue // leader failed: re-check the cache or take over
		}
		f := &flight[V]{done: make(chan struct{})}
		fl[key] = f
		mu.Unlock()
		f.v, f.err = run()
		mu.Lock()
		delete(fl, key)
		mu.Unlock()
		close(f.done)
		return f.v, false, f.err
	}
}
