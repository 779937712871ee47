// Package exp contains the experiment drivers that regenerate the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	E1  throughput vs replicas            (§11.1, near-linear scaling)
//	E2  latency vs strict fraction        (§11.1, linear growth)
//	E3  response-time bounds              (Theorem 9.3)
//	E4  stabilization bound               (Lemma 9.2)
//	E5  fault-window recovery             (Theorem 9.4)
//	E6  memoization ablation              (§10.1)
//	E7  commute-mode ablation             (§10.3)
//	E8  delta-gossip ablation             (§10.4)
//	E9  baseline comparison               (§1.1, §5, Corollary 5.9)
//
// Each experiment is a pure function of its parameters and seed: the
// discrete-event simulator and seeded rngs make each table reproducible
// bit-for-bit.
package exp

import (
	"math/rand"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// dirDT and replicaID keep experiment code terse.
func dirDT() dtype.DataType           { return dtype.Directory{} }
func replicaID(i int) label.ReplicaID { return label.ReplicaID(i) }

// Timing bundles the paper's §9 parameters.
type Timing struct {
	DF sim.Duration // d_f: front-end ↔ replica delivery bound
	DG sim.Duration // d_g: replica ↔ replica delivery bound
	G  sim.Duration // g: gossip period bound
}

// DefaultTiming mirrors a LAN-ish deployment: 1ms front-end hops, 2ms
// gossip hops, 5ms gossip period.
func DefaultTiming() Timing {
	return Timing{DF: 1 * sim.Millisecond, DG: 2 * sim.Millisecond, G: 5 * sim.Millisecond}
}

// Env is a ready-to-run simulated cluster. GossipBytes is the share of
// Net's estimated bytes that gossip frames took.
type Env struct {
	S           *sim.Sim
	Net         *transport.SimNet
	Cluster     *core.Cluster
	Timing      Timing
	RNG         *rand.Rand
	GossipBytes uint64
}

// EnvConfig assembles an Env.
type EnvConfig struct {
	Seed     int64
	Replicas int
	DataType dtype.DataType
	Options  core.Options
	Timing   Timing
	// Jitter makes message latency uniform in [d/2, d] instead of exactly
	// d, so messages overtake each other; gossip needs no FIFO channels.
	Jitter bool
}

// NewEnv builds the simulator, network, and cluster, and starts gossip.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	s := sim.New(cfg.Seed)
	env := &Env{S: s, Timing: cfg.Timing, RNG: rand.New(rand.NewSource(cfg.Seed + 7919))}
	isReplica := func(id transport.NodeID) bool {
		return len(id) > 8 && id[:8] == "replica:"
	}
	mk := func(d sim.Duration) func(transport.NodeID, transport.NodeID, interface{ Intn(int) int }) sim.Duration {
		if cfg.Jitter {
			return transport.UniformLatency(d/2, d)
		}
		return transport.FixedLatency(d)
	}
	env.Net = transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica, mk(cfg.Timing.DF), mk(cfg.Timing.DG)),
		Sizer: func(payload any) int {
			n := core.EstimateSize(payload)
			if _, ok := payload.(core.GossipMsg); ok {
				env.GossipBytes += uint64(n)
			}
			return n
		},
	})
	env.Cluster = core.NewCluster(core.ClusterConfig{
		Replicas: cfg.Replicas,
		DataType: cfg.DataType,
		Network:  env.Net,
		Options:  cfg.Options,
	})
	env.Cluster.StartSimGossip(s, cfg.Timing.G)
	return env
}

// Obs is one completed operation observation.
type Obs struct {
	X         ops.Operation
	Value     dtype.Value
	Submitted sim.Time
	Responded sim.Time
	Done      bool
}

// Latency returns the response latency.
func (o *Obs) Latency() sim.Duration { return o.Responded.Sub(o.Submitted) }

// Collector gathers observations.
type Collector struct {
	All []*Obs
}

// Submit issues an operation through the client's front end and records its
// completion time.
func (c *Collector) Submit(env *Env, client string, op dtype.Operator, prev []ops.ID, strict bool) *Obs {
	o := &Obs{Submitted: env.S.Now()}
	fe := env.Cluster.FrontEnd(client)
	o.X = fe.Submit(op, prev, strict, func(r core.Response) {
		o.Value = r.Value
		o.Responded = env.S.Now()
		o.Done = true
	})
	c.All = append(c.All, o)
	return o
}

// Latencies returns the latencies of completed observations matching the
// filter (nil filter = all), in milliseconds.
func (c *Collector) Latencies(filter func(*Obs) bool) []float64 {
	var out []float64
	for _, o := range c.All {
		if !o.Done {
			continue
		}
		if filter != nil && !filter(o) {
			continue
		}
		out = append(out, float64(o.Latency())/float64(sim.Millisecond))
	}
	return out
}

// Completed counts completed observations.
func (c *Collector) Completed() int {
	n := 0
	for _, o := range c.All {
		if o.Done {
			n++
		}
	}
	return n
}

// DirectoryWorkload returns a deterministic operator stream over the
// directory data type (the paper's motivating application, §11.2): mostly
// lookups/getattrs, some binds and setattrs, over a bounded name space.
func DirectoryWorkload(rng *rand.Rand) func() dtype.Operator {
	names := []string{"printer", "mail", "web", "db", "cache", "auth", "dns", "ldap"}
	keys := []string{"host", "port", "owner"}
	return func() dtype.Operator {
		name := names[rng.Intn(len(names))]
		switch p := rng.Float64(); {
		case p < 0.55:
			return dtype.DirLookup{Name: name}
		case p < 0.75:
			return dtype.DirGetAttr{Name: name, Key: keys[rng.Intn(len(keys))]}
		case p < 0.85:
			return dtype.DirBind{Name: name}
		case p < 0.97:
			return dtype.DirSetAttr{Name: name, Key: keys[rng.Intn(len(keys))], Val: "v"}
		default:
			return dtype.DirList{}
		}
	}
}
