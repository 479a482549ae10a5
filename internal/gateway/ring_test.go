package gateway

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

func ringMembers(n int) []*member {
	members := make([]*member, n)
	for i := range members {
		members[i] = &member{id: fmt.Sprintf("shard-%d", i), idx: i}
	}
	return members
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
	for i := range keys {
		key := fmt.Sprintf("Svc%d|owner%d", i, i%97)
		switch before, after := full.walk(key, nil)[0].id, smaller.walk(key, nil)[0].id; {
		case before == after:
		case before != "shard-15":
			t.Fatalf("key %q moved %s -> %s although its owner survived", key, before, after)
		default:
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
	counts := make([]int, 8)
	for i := range 8192 {
		counts[r.walk(fmt.Sprintf("S%d|u%d", i, i), nil)[0].idx]++
	}
	// 64 vnodes keeps shards within a loose factor of each other.
	if min, max := slices.Min(counts), slices.Max(counts); max > 4*min {
		t.Fatalf("unbalanced ring: min %d max %d (%v)", min, max, counts)
	}
}

func TestRingRebuildRestoresMapping(t *testing.T) {
	members := ringMembers(4)
	r := newRing(members)
	key := "MonteCarloService|alice"
	orig := r.walk(key, nil)[0].id
	r.rebuild(members[:3])
	r.rebuild(members)
	if got := r.walk(key, nil)[0].id; got != orig {
		t.Fatalf("rebuild with original members moved %q: %s -> %s", key, orig, got)
	}
}

// TestOrderedMembersAllocations: a key's ordered members — the walk every
// keyed and ticket request takes — cost no object: they go into the
// caller's array.
func TestOrderedMembersAllocations(t *testing.T) {
	r := newRing(ringMembers(4))
	allocs := testing.AllocsPerRun(200, func() {
		var buf [8]*member
		if succ := r.walk("SService", buf[:]); len(succ) != 4 {
			t.Fatalf("%d successors", len(succ))
		}
	})
	if allocs > 0 {
		t.Fatalf("the ordered members of a key cost %.0f objects, want 0", allocs)
	}
}

// TestPrimaryForIsStable: the ring places 1 000 service names where it
// always has, primaries and whole successor walks, on fleets of four and
// five. results/fleet.json and every fleet study assume this placement.
func TestPrimaryForIsStable(t *testing.T) {
	golden := map[int][2]uint64{ // FNV-64a of the primaries of Svc<i>Service, i = 0..999, and of their walks
		4: {0x59f7577b1da93ade, 0xd82bc5f364d6ee5},
		5: {0x393c70397ef3d3ee, 0xe72a2d94f23516b5},
	}
	for n, want := range golden {
		g := &Gateway{ring: newRing(ringMembers(n))}
		primaries, walks := fnv.New64a(), fnv.New64a()
		for i := range 1000 {
			key := fmt.Sprintf("Svc%dService", i)
			fmt.Fprint(primaries, g.PrimaryFor(key))
			for _, m := range g.ring.walk(key, nil) {
				fmt.Fprintf(walks, "%d,", m.idx)
			}
		}
		if got := [2]uint64{primaries.Sum64(), walks.Sum64()}; got != want {
			t.Errorf("fleet of %d: placement moved: primaries, walks %#x, want %#x", n, got, want)
		}
	}
}
