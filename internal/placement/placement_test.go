package placement

import (
	"reflect"
	"testing"
)

// geometries sweeps the shapes the properties must hold for: replica
// counts 1–3, member counts up to well past the shard count, shard counts
// from tiny to dozens.
func geometries() [][3]int {
	var out [][3]int
	for _, shards := range []int{1, 2, 3, 4, 6, 8, 13, 32} {
		for _, replicas := range []int{1, 2, 3} {
			for members := replicas; members <= 3*shards+replicas; members++ {
				out = append(out, [3]int{shards, replicas, members})
			}
		}
	}
	return out
}

func TestBaseMatchesLegacyTopology(t *testing.T) {
	// At members == replicas the placement must be exactly the historical
	// topology: member i hosts replica slot i of every shard.
	p := New(5, 3, 3)
	for s := 0; s < 5; s++ {
		for k := 0; k < 3; k++ {
			if p.Member(s, k) != k {
				t.Fatalf("base placement: shard %d slot %d on member %d, want %d", s, k, p.Member(s, k), k)
			}
		}
	}
}

func TestEveryShardHasExactlyReplicasDistinctHosts(t *testing.T) {
	for _, g := range geometries() {
		p := New(g[0], g[1], g[2])
		for s := 0; s < g[0]; s++ {
			hosts := p.Hosts(s)
			if len(hosts) != g[1] {
				t.Fatalf("geometry %v: shard %d has %d hosts, want %d", g, s, len(hosts), g[1])
			}
			seen := make(map[int]bool)
			for _, m := range hosts {
				if m < 0 || m >= g[2] {
					t.Fatalf("geometry %v: shard %d hosted by out-of-range member %d", g, s, m)
				}
				if seen[m] {
					t.Fatalf("geometry %v: shard %d hosted twice by member %d", g, s, m)
				}
				seen[m] = true
			}
		}
	}
}

func TestLoadsBalancedWithinOne(t *testing.T) {
	for _, g := range geometries() {
		shards, replicas, members := g[0], g[1], g[2]
		if members > shards*replicas {
			// More members than slots: some members are legitimately empty,
			// and balance means no member holds 2 while another holds 0.
			// The ±1 claim below covers that case too, so fall through.
			_ = members
		}
		p := New(shards, replicas, members)
		min, max := shards*replicas, 0
		for m := 0; m < members; m++ {
			l := p.Load(m)
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Fatalf("geometry %v: loads spread %d..%d exceeds ±1", g, min, max)
		}
	}
}

func TestGrowthMovesAtMostFairShare(t *testing.T) {
	for _, g := range geometries() {
		shards, replicas, members := g[0], g[1], g[2]
		old := New(shards, replicas, members)
		grown := New(shards, replicas, members+1)
		moved := Moved(old, grown)
		bound := (shards*replicas + members) / (members + 1) // ceil(S·R/(M+1))
		if moved > bound {
			t.Fatalf("geometry %v → %d members moved %d assignments, bound %d", g, members+1, moved, bound)
		}
		// Movement must be real stealing: every changed slot now belongs to
		// the new member; old members never trade slots among themselves.
		for s := 0; s < shards; s++ {
			for k := 0; k < replicas; k++ {
				if old.Member(s, k) != grown.Member(s, k) && grown.Member(s, k) != members {
					t.Fatalf("geometry %v: shard %d slot %d moved %d→%d, not to the new member %d",
						g, s, k, old.Member(s, k), grown.Member(s, k), members)
				}
			}
		}
	}
}

func TestDeterministicAndGrowEqualsNew(t *testing.T) {
	a := New(8, 3, 7)
	b := New(8, 3, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("New is not deterministic")
	}
	// Growth is a pure function of the geometry: growing 3→7 one member at
	// a time lands on exactly New(8, 3, 7).
	c := New(8, 3, 3).Grow(7)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("Grow(7) differs from New(…, 7)")
	}
}

func TestExtendKeepsExistingAssignmentsAndBalance(t *testing.T) {
	for _, g := range [][3]int{{4, 3, 5}, {2, 2, 6}, {8, 3, 4}, {3, 1, 3}} {
		p := New(g[0], g[1], g[2])
		q := p.Extend(g[0] + 3)
		if Moved(p, q) != 0 {
			t.Fatalf("geometry %v: Extend moved %d existing assignments", g, Moved(p, q))
		}
		min, max := q.shards*q.replicas, 0
		for m := 0; m < q.members; m++ {
			l := q.Load(m)
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Fatalf("geometry %v extended: loads spread %d..%d exceeds ±1", g, min, max)
		}
		for s := g[0]; s < q.Shards(); s++ {
			hosts := q.Hosts(s)
			seen := make(map[int]bool)
			for _, m := range hosts {
				if seen[m] {
					t.Fatalf("extended shard %d hosted twice by member %d", s, m)
				}
				seen[m] = true
			}
			if len(hosts) != g[1] {
				t.Fatalf("extended shard %d has %d hosts, want %d", s, len(hosts), g[1])
			}
		}
	}
}

func TestAccessorsAgree(t *testing.T) {
	p := New(6, 2, 5)
	for m := 0; m < p.Members(); m++ {
		load := 0
		for _, s := range p.ShardsOf(m) {
			slots := p.Slots(s, m)
			if len(slots) == 0 {
				t.Fatalf("ShardsOf(%d) lists shard %d but Slots is empty", m, s)
			}
			for _, k := range slots {
				if p.Member(s, k) != m {
					t.Fatalf("Slots(%d, %d) lists slot %d but Member says %d", s, m, k, p.Member(s, k))
				}
			}
			load += len(slots)
		}
		if load != p.Load(m) {
			t.Fatalf("member %d: ShardsOf/Slots count %d, Load says %d", m, load, p.Load(m))
		}
	}
	table := p.Table()
	if len(table) != p.Shards() {
		t.Fatalf("Table has %d rows, want %d", len(table), p.Shards())
	}
	for _, a := range table {
		if !reflect.DeepEqual(a.Members, p.Hosts(a.Shard)) {
			t.Fatalf("Table row %d disagrees with Hosts", a.Shard)
		}
	}
}

func TestInvalidGeometriesPanic(t *testing.T) {
	for _, g := range [][3]int{{0, 1, 1}, {1, 0, 1}, {2, 3, 2}} {
		g := g
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("geometry %v did not panic", g)
				}
			}()
			New(g[0], g[1], g[2])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("shrinking Grow did not panic")
			}
		}()
		New(2, 2, 4).Grow(3)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("shrinking Extend did not panic")
			}
		}()
		New(4, 2, 2).Extend(2)
	}()
}

// TestGrowingTheFleetShedsResidentShards pins what placement is for
// (DESIGN.md §13): the 6-shard × 3-replica keyspace on 3 members forces
// full replication, and on 6 members both the mean and the largest number
// of shards resident per member fall by at least 40% (half is available
// geometrically). The largest set is what a new member that took no slots
// would leave unchanged.
func TestGrowingTheFleetShedsResidentShards(t *testing.T) {
	resident := func(p *Placement) (mean float64, most int) {
		total := 0
		for m := 0; m < p.Members(); m++ {
			n := len(p.ShardsOf(m))
			total += n
			most = max(most, n)
		}
		return float64(total) / float64(p.Members()), most
	}
	small := New(6, 3, 3)
	for _, grown := range []*Placement{New(6, 3, 6), small.Grow(6)} {
		meanSmall, mostSmall := resident(small)
		meanGrown, mostGrown := resident(grown)
		if mostSmall != 6 {
			t.Fatalf("3 members: the busiest hosts %d shards, want all 6", mostSmall)
		}
		if meanGrown > 0.6*meanSmall {
			t.Fatalf("mean resident shards %.2f on 6 members, not 40%% below %.2f on 3", meanGrown, meanSmall)
		}
		if float64(mostGrown) > 0.6*float64(mostSmall) {
			t.Fatalf("the busiest of 6 members hosts %d shards, not 40%% below %d on 3", mostGrown, mostSmall)
		}
	}
}
