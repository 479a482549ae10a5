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
	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	ids    []string
}

type ringPoint struct {
	hash uint64
	id   string
}

func newRing(ids []string) *ring {
	r := &ring{}
	r.rebuild(ids)
	return r
}

// rebuild replaces the membership. Ejection does not rebuild the ring —
// health is a dispatch-time concern, so a recovered member gets its old
// keys back — only genuine fleet-size changes do.
func (r *ring) rebuild(ids []string) {
	pts := make([]ringPoint, 0, len(ids)*virtualNodes)
	for _, id := range ids {
		for v := 0; v < virtualNodes; v++ {
			pts = append(pts, ringPoint{hash: hash64(id + "#" + strconv.Itoa(v)), id: id})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].id < pts[j].id
	})
	r.mu.Lock()
	r.points = pts
	r.ids = append([]string(nil), ids...)
	r.mu.Unlock()
}

// successors returns every member id in ring order starting at key's
// hash: the primary first, then the failover order. The slice is freshly
// allocated and safe to retain.
func (r *ring) successors(key string) []string {
	h := hash64(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.ids))
	seen := make(map[string]bool, len(r.ids))
	for i := 0; i < len(r.points) && len(out) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

// size reports the member count.
func (r *ring) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
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
