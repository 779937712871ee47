package core

import "time"

// Options selects which of the §10 optimizations a replica runs. The zero
// value recomputes every response from the initial state, as Fig. 7 does.
// Gossip is not an option: a replica always sends each peer the changes it
// has not acknowledged (§10.4, made loss-tolerant; see GossipMsg).
type Options struct {
	// Memoize caches computed states. It enables the §10.1 solid-prefix
	// memoization (ESDS-Alg′, Fig. 10): once an operation is solid at the
	// replica — stable, or locally ordered before a stable operation — its
	// value and the state after it are cached and never recomputed. It also
	// keeps the suffix cache (DESIGN.md §8, "Response computation"): the
	// value of and state after each unsolid operation a response needed,
	// recomputed only from the first position a reorder moved and taken
	// over by the memoized prefix as it advances. Off, every response
	// replays the unstable suffix from the memoized state (Fig. 7 as
	// written).
	Memoize bool

	// Prune enables the §10.2 memory reclamation: prev sets are dropped once
	// an operation is done locally, and full descriptors of memoized
	// operations are released (only id and value are retained). A pruned
	// descriptor can never be re-learned from gossip, so a recovering or
	// joining replica is handed the memoized prefix itself (state transfer,
	// DESIGN.md §5) — which needs the data type's canonical state encoding.
	// Prune therefore takes effect only for a type implementing
	// dtype.Snapshotter (all built-in types and their Keyed lifts do); for
	// any other type the replica retains every descriptor and recovery is
	// descriptor replay.
	Prune bool

	// Commute enables the §10.3 current-state mode (Fig. 11): the replica
	// additionally maintains cs_r, the state after all locally done
	// operations in arrival order, and answers non-strict requests from the
	// value computed when the operation was first applied — no recomputation
	// at response time. Sound only for SafeUsers workloads, where clients
	// order all non-commuting operations via prev sets.
	Commute bool

	// BatchSize enables the batched hot path (DESIGN.md §8) when > 1: front
	// ends pack up to BatchSize submissions per target replica into one
	// BatchRequestMsg and replicas pack responses to one front end into one
	// BatchResponseMsg. Gossip needs no knob of its own: a replica sends
	// each peer one frame per gossip tick, and that frame already carries
	// everything that changed since the last tick — the gossip interval is
	// the gossip batch. A batch is semantically the
	// sequence of its elements, applied in order — no protocol obligation
	// changes — so the knob trades per-operation latency for frame-rate and
	// CPU: one frame (and, over TCPNet, typically one syscall) carries many
	// operations. 0 or 1 disables batching (every message is its own frame,
	// the paper's shape). Every member of a cluster should agree on whether
	// batching is on, like the other wire-affecting options.
	BatchSize int

	// BatchDelay is the front-end flush period: a partially filled request
	// batch waits at most this long before the batch flusher sends it
	// (esds.New and esds-server start the flusher; raw core users call
	// Cluster.StartLiveBatchFlush or FrontEnd.Flush). A submission that
	// finds its front end's batch closed never waits: it is sent at once
	// and opens the batch, and only submissions to an open batch buffer.
	// The flusher ticks at this period only while some front end has an
	// open batch, and sleeps otherwise. Zero means the default period of
	// FlushPeriod. Meaningful only with BatchSize > 1.
	BatchDelay time.Duration
}

// FlushPeriod is the batch flusher's period for an enabled batched hot
// path: BatchDelay when set, else 1ms — a partial batch must never be
// stranded waiting for the size trigger alone. esds.New and esds-server
// pass it to StartLiveBatchFlush whenever BatchSize > 1.
func (o Options) FlushPeriod() time.Duration {
	if o.BatchDelay > 0 {
		return o.BatchDelay
	}
	return time.Millisecond
}

// The shipped configuration: the protocol timers and batch shape that
// esds.New and every esds-server member run, and that the benchmark
// (benchmark/deploy.go) measures. A test pins the three to each other.
const (
	// GossipInterval is the anti-entropy period (the paper's g).
	GossipInterval = 5 * time.Millisecond
	// RetransmitInterval is the front-end retransmission period (§6.2): a
	// pending request is re-sent, rotating replicas, this often.
	RetransmitInterval = 250 * time.Millisecond
)

// DefaultOptions is the configuration an unbatched deployment runs (an
// unsharded esds.New service): memoization and pruning on, commute mode
// off (commute mode needs the SafeUsers client discipline, which nothing
// enforces), batching off. Gossip has one mode and its wire form is not an
// option either: the transport negotiates it.
func DefaultOptions() Options {
	return Options{
		Memoize: true,
		Prune:   true,
	}
}

// BatchedOptions is DefaultOptions plus the batched hot path (DESIGN.md
// §8): what a sharded esds.New service and every esds-server member run.
// Batching trades a flush period of per-operation latency for frame rate
// and CPU.
func BatchedOptions() Options {
	opt := DefaultOptions()
	opt.BatchSize = 32
	opt.BatchDelay = time.Millisecond
	return opt
}
