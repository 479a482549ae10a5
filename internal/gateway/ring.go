package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// virtualNodes is how many points each member puts on the ring.
const virtualNodes = 64

// ring is a consistent-hash ring with virtual nodes. Each member
// contributes virtualNodes points; a key routes to the first point
// clockwise from its hash, and the ordered walk from there yields the
// failover successors. With that many points adding or removing one
// member remaps roughly 1/N of the keyspace and leaves every other key
// where it was — the property that keeps a service's cached stats and
// staged executable on one shard while the fleet grows.
type ring struct {
	mu      sync.RWMutex
	points  []ringPoint // sorted by hash, ties by member id
	members []*member
}

type ringPoint struct {
	hash uint64
	idx  int // into members
}

func newRing(members []*member) *ring {
	r := &ring{}
	r.rebuild(members)
	return r
}

// rebuild replaces the membership. Ejection does not rebuild the ring —
// health is a dispatch-time concern, so a recovered member gets its old
// keys back — only genuine fleet-size changes do.
func (r *ring) rebuild(members []*member) {
	pts := make([]ringPoint, 0, len(members)*virtualNodes)
	for i, m := range members {
		for v := 0; v < virtualNodes; v++ {
			pts = append(pts, ringPoint{hash: hash64(m.id + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return members[pts[i].idx].id < members[pts[j].idx].id
	})
	r.mu.Lock()
	r.points = pts
	r.members = append([]*member(nil), members...)
	r.mu.Unlock()
}

// walk writes into into[:0] every member in ring order starting at key's
// hash — the primary first, then the failover order — and returns it: a
// caller's [8]*member holds a fleet of up to eight, no allocation.
func (r *ring) walk(key string, into []*member) []*member {
	h := hash64(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := into[:0]
	var small [64]bool
	seen := small[:]
	if len(r.members) > len(small) {
		seen = make([]bool, len(r.members))
	}
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, r.members[p.idx])
		}
	}
	return out
}

// size reports the member count.
func (r *ring) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// hash64 is FNV-64a with a splitmix64 finalizer. Raw FNV of the nearly
// identical vnode labels ("shard-3#17", "shard-3#18", ...) clusters on
// the ring badly enough to skew shard load several-fold; the finalizer
// decorrelates them so 64 vnodes balance within the expected few
// percent.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
