package loadlab

import (
	"strings"
	"time"

	"esds/internal/core"
	"esds/internal/label"
	"esds/internal/transport"
)

// Profile is a named network personality for the load lab: steady-state
// per-link faults plus an optional scripted timeline, realized as a
// transport.FaultNet around the real transport. The five standard
// profiles (DESIGN.md §11):
//
//	clean  — perfect loopback; the baseline the p99 gate pins.
//	wan    — wide-area latency and jitter, light loss and reorder;
//	         replica↔replica links are slower than client↔replica links
//	         (the paper's d_g > d_f).
//	lossy  — 30% loss on every link with moderate latency; liveness
//	         rides entirely on retransmission and gossip resends.
//	flap   — a repeating asymmetric partition: each shard's replica 0
//	         periodically stops RECEIVING from its peers (it can still
//	         send, and clients still reach it) for a window, then heals.
//	cut    — one link down for the whole window: each shard's replica 0
//	         cannot send to its replica 2, which gets replica 0's
//	         operations only as replica 1 relays them.
type Profile struct {
	Name     string
	Faults   func(from, to transport.NodeID) transport.LinkFaults
	Timeline []transport.Phase
	Repeat   bool
}

// NetConfig assembles the FaultNet configuration for this profile.
func (p Profile) NetConfig(seed int64) transport.FaultNetConfig {
	return transport.FaultNetConfig{
		Seed:     seed,
		Faults:   p.Faults,
		Timeline: p.Timeline,
		Repeat:   p.Repeat,
	}
}

// isReplicaNode matches both unsharded ("replica:0") and sharded
// ("s2/replica:0") replica names.
func isReplicaNode(id transport.NodeID) bool {
	return strings.Contains(string(id), "replica:")
}

// Clean is the perfect network: FaultNet passes everything through
// immediately. Running it through the wrapper anyway keeps the measured
// code path identical across profiles.
func Clean() Profile {
	return Profile{Name: "clean"}
}

// WAN emulates wide-area links: gossip links ~10–25ms one way, client
// links ~4–12ms, 1%/0.5% loss, a little reordering.
func WAN() Profile {
	return Profile{
		Name: "wan",
		Faults: func(from, to transport.NodeID) transport.LinkFaults {
			if isReplicaNode(from) && isReplicaNode(to) {
				return transport.LinkFaults{
					Base: 10 * time.Millisecond, Jitter: 15 * time.Millisecond,
					Loss: 0.01, Reorder: 0.05,
				}
			}
			return transport.LinkFaults{
				Base: 4 * time.Millisecond, Jitter: 8 * time.Millisecond,
				Loss: 0.005, Reorder: 0.02,
			}
		},
	}
}

// Lossy drops 30% of every link's messages with moderate latency — the
// regime where the retransmission ticker and gossip resent after an
// overdue acknowledgement carry the protocol.
func Lossy() Profile {
	return Profile{
		Name: "lossy",
		Faults: func(transport.NodeID, transport.NodeID) transport.LinkFaults {
			return transport.LinkFaults{
				Base: time.Millisecond, Jitter: 3 * time.Millisecond,
				Loss: 0.30, Reorder: 0.05,
			}
		},
	}
}

// Flapping builds the repeating asymmetric-partition profile for a
// keyspace of up to maxShards shards with replicas per shard: for window
// after window, every shard's replica 0 stops receiving from its peer
// replicas (peers→r0 blocked; r0→peers and all client links flow), then
// the partition lifts. Shards beyond maxShards (from a larger resize)
// simply see no blocks.
func Flapping(maxShards, replicas int) Profile {
	var from, to []transport.NodeID
	for s := 0; s < maxShards; s++ {
		to = append(to, core.ReplicaNodeIn(s, 0))
		for r := 1; r < replicas; r++ {
			from = append(from, core.ReplicaNodeIn(s, label.ReplicaID(r)))
		}
	}
	block := []transport.Block{{From: from, To: to}}
	return Profile{
		Name: "flap",
		Faults: func(transport.NodeID, transport.NodeID) transport.LinkFaults {
			return transport.LinkFaults{Base: time.Millisecond, Jitter: 2 * time.Millisecond}
		},
		Timeline: []transport.Phase{
			{Dur: 150 * time.Millisecond, Block: block},
			{Dur: 150 * time.Millisecond},
		},
		Repeat: true,
	}
}

// Cut builds the one-link profile for a keyspace of up to maxShards
// shards: every shard's link from replica 0 to replica 2 is down until
// the cell heals the network. Replica 2 hears of replica 0's operations,
// labels and completions through replica 1, and gets their descriptors
// from replica 1's relay (DESIGN.md §8, "Relays on a deadline").
func Cut(maxShards int) Profile {
	var block []transport.Block
	for s := 0; s < maxShards; s++ {
		block = append(block, transport.Block{
			From: []transport.NodeID{core.ReplicaNodeIn(s, 0)},
			To:   []transport.NodeID{core.ReplicaNodeIn(s, 2)},
		})
	}
	return Profile{
		Name: "cut",
		Faults: func(transport.NodeID, transport.NodeID) transport.LinkFaults {
			return transport.LinkFaults{Base: time.Millisecond, Jitter: 2 * time.Millisecond}
		},
		Timeline: []transport.Phase{{Dur: time.Hour, Block: block}},
	}
}

// Profiles returns the standard profile set for a keyspace that may grow
// to maxShards shards of the given replica count.
func Profiles(maxShards, replicas int) []Profile {
	return []Profile{Clean(), WAN(), Lossy(), Flapping(maxShards, replicas), Cut(maxShards)}
}

// ProfileByName finds a standard profile.
func ProfileByName(name string, maxShards, replicas int) (Profile, bool) {
	for _, p := range Profiles(maxShards, replicas) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
