package core

import "time"

// Options selects which of the §10 optimizations a replica runs. The zero
// value is the unoptimized abstract algorithm of Fig. 7 (recompute every
// response from the initial state, full gossip).
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
	// each peer one frame per gossip tick, and under IncrementalGossip that
	// frame already carries everything that changed since the last tick —
	// the gossip interval is the gossip batch. A batch is semantically the
	// sequence of its elements, applied in order — no protocol obligation
	// changes — so the knob trades per-operation latency for frame-rate and
	// CPU: one frame (and, over TCPNet, typically one syscall) carries many
	// operations. 0 or 1 disables batching (every message is its own frame,
	// the paper's shape). Every member of a cluster should agree on whether
	// batching is on, like the other wire-affecting options.
	BatchSize int

	// BatchDelay is the front-end flush period: a partially filled request
	// batch waits at most this long before the batch flusher sends it
	// (esds.New/NewKeyspace and esds-server start the flusher; raw core
	// users call Cluster.StartLiveBatchFlush or FrontEnd.Flush). The first
	// submission to an idle replica target never waits: it is sent at once
	// and opens the target, and only submissions to an open target buffer.
	// The flusher ticks at this period only while some front end has an
	// open target, and sleeps otherwise. Zero means the default period of
	// FlushPeriod. Meaningful only with BatchSize > 1.
	BatchDelay time.Duration

	// IncrementalGossip enables the §10.4 communication reduction: each
	// replica remembers what it has sent to each peer and gossips only new
	// operations, newly done/stable identifiers, and lowered labels.
	// As in the paper, this requires reliable FIFO channels: with full
	// gossip every message is self-contained (its D entries come with their
	// R descriptors and L labels), so reordering is harmless, but a delta
	// depends on its predecessors having been delivered.
	IncrementalGossip bool
}

// FlushPeriod is the batch flusher's period for an enabled batched hot
// path: BatchDelay when set, else 1ms — a partial batch must never be
// stranded waiting for the size trigger alone. esds.New/NewKeyspace and
// esds-server pass it to StartLiveBatchFlush whenever BatchSize > 1.
func (o Options) FlushPeriod() time.Duration {
	if o.BatchDelay > 0 {
		return o.BatchDelay
	}
	return time.Millisecond
}

// DefaultOptions is the configuration a production deployment would run:
// memoization and pruning on, incremental gossip on, commute mode off
// (commute mode needs the SafeUsers client discipline), batching off
// (it trades per-operation latency for throughput — a deployment
// decision; see BatchSize and DESIGN.md §8). The gossip wire form is not
// an option: the transport negotiates it.
func DefaultOptions() Options {
	return Options{
		Memoize:           true,
		Prune:             true,
		IncrementalGossip: true,
	}
}
