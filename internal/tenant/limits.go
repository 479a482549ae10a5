package tenant

import (
	"sync"
	"time"
)

// rateLimiter holds one token bucket per owner+verb. Buckets are
// created lazily and refilled by elapsed time (virtual in a simulation's
// bubble).
type rateLimiter struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter() *rateLimiter {
	return &rateLimiter{buckets: make(map[string]*bucket)}
}

// allow consumes one token from owner's bucket for verb. rate is
// tokens/second; rate <= 0 means unlimited. burst <= 0 defaults to
// max(1, rate) so a fresh bucket admits an initial burst of one
// second's allowance. Denials are immediate — a rate-limited caller
// gets a 429, it never queues — which keeps the limiter a pure
// damper in front of the fair-share quota.
func (r *rateLimiter) allow(owner string, verb Verb, rate, burst float64) bool {
	if rate <= 0 {
		return true
	}
	if burst <= 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	key := owner + "|" + string(verb)
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.buckets[key]
	if b == nil {
		b = &bucket{tokens: burst, last: now}
		r.buckets[key] = b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * rate
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// quota is the fair-share concurrency gate: a per-owner and global
// cap on in-flight invocations, with a deficit-round-robin wake order
// when the appliance is saturated. Waiters park per owner; each slot
// release wakes the next waiter in DRR order — the pointer visits
// owner queues cyclically, each visit deposits the owner's weight as
// deficit, and the owner admits while deficit lasts — so a tenant
// with weight 2 drains twice as fast as one with weight 1, and a
// thousand queued invocations from one tenant cannot starve another's
// single waiter the way a FIFO queue would.
type quota struct {
	mu        sync.Mutex
	globalMax int           // 0 = unlimited
	queueMax  int           // per-owner waiter cap, 0 = unlimited
	timeout   time.Duration // max queue wait, 0 = wait forever
	total     int           // granted slots
	waiting   int           // live waiters across owners
	owners    map[string]*ownerQ
	active    []string // owners with waiters, in arrival order
	rrIdx     int      // DRR pointer into active
	fresh     bool     // next visit deposits a quantum
}

type ownerQ struct {
	name     string
	max      int // per-owner in-flight cap, 0 = unlimited
	weight   int // DRR quantum, >= 1
	inflight int
	deficit  float64
	q        []*waiter
}

type waiter struct {
	ch      chan struct{}
	granted bool
	gone    bool // abandoned by timeout; skip on dispatch
}

func newQuota(globalMax, queueMax int, timeout time.Duration) *quota {
	return &quota{
		globalMax: globalMax,
		queueMax:  queueMax,
		timeout:   timeout,
		owners:    make(map[string]*ownerQ),
		fresh:     true,
	}
}

// configure registers or updates an owner's cap and weight.
func (q *quota) configure(owner string, max, weight int) {
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	oq := q.owners[owner]
	if oq == nil {
		oq = &ownerQ{name: owner}
		q.owners[owner] = oq
	}
	oq.max = max
	oq.weight = weight
}

// acquire takes one in-flight slot for owner, queueing when the
// owner or the appliance is at its cap. It reports whether the admit
// queued and for how long; err is ErrSaturated when the queue is full
// or the wait timed out.
func (q *quota) acquire(owner string) (queued bool, waited time.Duration, err error) {
	q.mu.Lock()
	oq := q.owners[owner]
	if oq == nil {
		oq = &ownerQ{name: owner, weight: 1}
		q.owners[owner] = oq
	}
	// Fast path: no one is queued anywhere and there is room. Any live
	// waiter — even another owner's — forces the queue so arrivals
	// cannot barge past the DRR order.
	if q.waiting == 0 && q.roomFor(oq) {
		oq.inflight++
		q.total++
		q.mu.Unlock()
		return false, 0, nil
	}
	if q.queueMax > 0 && len(oq.q) >= q.queueMax {
		q.mu.Unlock()
		return false, 0, ErrSaturated
	}
	w := &waiter{ch: make(chan struct{})}
	oq.q = append(oq.q, w)
	q.waiting++
	if !q.inActive(owner) {
		q.active = append(q.active, owner)
	}
	// Capacity may exist even with waiters present (e.g. every waiter
	// belongs to a cap-blocked owner), so dispatch before parking.
	q.dispatch()
	if w.granted {
		q.mu.Unlock()
		return true, 0, nil
	}
	q.mu.Unlock()

	start := time.Now()
	var timeoutCh <-chan time.Time
	if q.timeout > 0 {
		timeoutCh = time.After(q.timeout)
	}
	select {
	case <-w.ch:
		return true, time.Since(start), nil
	case <-timeoutCh:
		q.mu.Lock()
		if w.granted {
			// The grant raced the timeout; the slot is ours.
			q.mu.Unlock()
			return true, time.Since(start), nil
		}
		w.gone = true
		q.waiting--
		q.mu.Unlock()
		return true, time.Since(start), ErrSaturated
	}
}

// release returns owner's slot and wakes the next waiter in DRR order.
func (q *quota) release(owner string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	oq := q.owners[owner]
	if oq == nil || oq.inflight == 0 {
		return
	}
	oq.inflight--
	q.total--
	q.dispatch()
}

// roomFor reports whether one more slot fits under both caps.
func (q *quota) roomFor(oq *ownerQ) bool {
	if q.globalMax > 0 && q.total >= q.globalMax {
		return false
	}
	if oq.max > 0 && oq.inflight >= oq.max {
		return false
	}
	return true
}

func (q *quota) inActive(owner string) bool {
	for _, o := range q.active {
		if o == owner {
			return true
		}
	}
	return false
}

// dispatch hands free slots to waiters in deficit-round-robin order.
// The pointer state (rrIdx, fresh, per-owner deficit) persists across
// calls because slots usually free one at a time: a visit that was cut
// short by capacity resumes at the same owner with its remaining
// deficit, which is what makes the weighted A,A,B,A,A,B interleave
// emerge from single-slot releases. Callers hold q.mu.
func (q *quota) dispatch() {
	stalls := 0
	for q.waiting > 0 {
		if q.globalMax > 0 && q.total >= q.globalMax {
			return // no capacity anywhere; resume this visit on release
		}
		if len(q.active) == 0 {
			return
		}
		if q.rrIdx >= len(q.active) {
			q.rrIdx = 0
		}
		oq := q.owners[q.active[q.rrIdx]]
		oq.prune()
		if len(oq.q) == 0 {
			q.active = append(q.active[:q.rrIdx], q.active[q.rrIdx+1:]...)
			oq.deficit = 0
			q.fresh = true
			continue
		}
		if q.fresh {
			oq.deficit += float64(oq.weight)
			// Cap accumulated credit so an owner that sat cap-blocked
			// through several visits cannot later monopolise releases.
			if max := 2 * float64(oq.weight); oq.deficit > max {
				oq.deficit = max
			}
			q.fresh = false
		}
		if oq.deficit < 1 || !q.roomFor(oq) {
			q.rrIdx++
			q.fresh = true
			stalls++
			if stalls > len(q.active)+1 {
				return // every waiting owner is blocked by its own cap
			}
			continue
		}
		w := oq.q[0]
		oq.q = oq.q[1:]
		if w.gone {
			continue
		}
		w.granted = true
		close(w.ch)
		oq.inflight++
		q.total++
		oq.deficit--
		q.waiting--
		stalls = 0
	}
}

// prune drops abandoned waiters so they neither count against the
// queue bound nor absorb grants.
func (oq *ownerQ) prune() {
	live := oq.q[:0]
	for _, w := range oq.q {
		if !w.gone {
			live = append(live, w)
		}
	}
	oq.q = live
}

// gauges snapshots (in-flight, queued) globally and per owner.
func (q *quota) gauges() (total, waiting int, perOwner map[string][2]int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	perOwner = make(map[string][2]int, len(q.owners))
	for name, oq := range q.owners {
		live := 0
		for _, w := range oq.q {
			if !w.gone {
				live++
			}
		}
		perOwner[name] = [2]int{oq.inflight, live}
	}
	return q.total, q.waiting, perOwner
}
