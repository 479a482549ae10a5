package gateway

import (
	"fmt"
	"reflect"
	"testing"
)

func ringMembers(n int) []*member {
	members := make([]*member, n)
	for i := range members {
		members[i] = &member{id: fmt.Sprintf("shard-%d", i), idx: i}
	}
	return members
}

// successors is key's walk in a slice of its own.
func (r *ring) successors(key string) []*member { return r.walk(key, nil) }

// ids names a successor walk.
func ids(succ []*member) []string {
	out := make([]string, len(succ))
	for i, m := range succ {
		out[i] = m.id
	}
	return out
}

func TestRingDeterministicAndComplete(t *testing.T) {
	a := newRing(ringMembers(5))
	b := newRing(ringMembers(5))
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("Service%d", i)
		sa, sb := ids(a.successors(key)), ids(b.successors(key))
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("two identical rings disagree for %q: %v vs %v", key, sa, sb)
		}
		if len(sa) != 5 {
			t.Fatalf("successors(%q) = %v, want all 5 members", key, sa)
		}
		seen := make(map[string]bool)
		for _, id := range sa {
			if seen[id] {
				t.Fatalf("successors(%q) repeats %s: %v", key, id, sa)
			}
			seen[id] = true
		}
	}
}

// TestRingRemapFraction pins the consistent-hashing property the fleet
// depends on: removing one of N members remaps only the keys that
// member owned (~1/N of them), and every other key keeps its primary —
// so a crash reshuffles one shard's traffic, not the fleet's.
func TestRingRemapFraction(t *testing.T) {
	const members, keys = 16, 8192
	full := newRing(ringMembers(members))
	smaller := newRing(ringMembers(members)[:members-1]) // drop shard-15

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("Svc%d|owner%d", i, i%97)
		before := full.successors(key)[0].id
		after := smaller.successors(key)[0].id
		if before != after {
			if before != "shard-15" {
				t.Fatalf("key %q moved %s -> %s although its owner survived", key, before, after)
			}
			moved++
		}
	}
	frac := float64(moved) / keys
	// Expect ~1/16 = 6.25%; accept generous bounds around it.
	if frac < 0.02 || frac > 0.14 {
		t.Fatalf("removing 1 of %d members remapped %.1f%% of keys, want ~%.1f%%",
			members, 100*frac, 100.0/members)
	}
}

func TestRingBalance(t *testing.T) {
	r := newRing(ringMembers(8))
	counts := make(map[string]int)
	for i := 0; i < 8192; i++ {
		counts[r.successors(fmt.Sprintf("S%d|u%d", i, i))[0].id]++
	}
	min, max := 1<<30, 0
	for _, m := range ringMembers(8) {
		c := counts[m.id]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// 64 vnodes keeps shards within a loose factor of each other.
	if min == 0 || max > 4*min {
		t.Fatalf("unbalanced ring: min %d max %d (%v)", min, max, counts)
	}
}

func TestRingRebuildRestoresMapping(t *testing.T) {
	members := ringMembers(4)
	r := newRing(members)
	key := "MonteCarloService|alice"
	orig := r.successors(key)[0].id
	r.rebuild(members[:3])
	r.rebuild(members)
	if got := r.successors(key)[0].id; got != orig {
		t.Fatalf("rebuild with original members moved %q: %s -> %s", key, orig, got)
	}
}
