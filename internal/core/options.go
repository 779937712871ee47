package core

import "time"

// Options selects which of the §10 optimizations a replica runs. The zero
// value is the unoptimized abstract algorithm of Fig. 7 (recompute every
// response from the initial state, full gossip).
type Options struct {
	// Memoize enables the §10.1 solid-prefix memoization (ESDS-Alg′,
	// Fig. 10): once an operation is solid at the replica — stable, or
	// locally ordered before a stable operation — its value and the state
	// after it are cached and never recomputed.
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
	// BatchRequestMsg, replicas pack responses to one front end into one
	// BatchResponseMsg, and — under IncrementalGossip — gossip deltas
	// accumulate into BatchGossipMsg frames of up to BatchSize elements
	// (full gossip is self-contained and is never held back, so without
	// IncrementalGossip only requests and responses batch; TCPNet's
	// buffered writer still coalesces its frames). A batch is semantically the
	// sequence of its elements, applied in order — no protocol obligation
	// changes — so the knob trades per-operation latency for frame-rate and
	// CPU: one frame (and, over TCPNet, typically one syscall) carries many
	// operations. 0 or 1 disables batching (every message is its own frame,
	// the paper's shape). Every member of a cluster should agree on whether
	// batching is on, like the other wire-affecting options.
	BatchSize int

	// BatchDelay bounds how long a partially filled batch may wait before
	// it is flushed: front-end request batches are flushed by a flush
	// ticker of this period (esds.New/NewKeyspace and esds-server wire it;
	// raw core users call Cluster.StartLiveBatchFlush or FrontEnd.Flush),
	// and a replica holds coalesced gossip deltas across ticks until they
	// are BatchDelay old (or BatchSize elements) — at most one extra
	// gossip tick when BatchDelay is below the gossip period, since the
	// tick is the flush opportunity. Zero flushes gossip every tick and
	// leaves request batches to the size trigger plus the retransmission
	// ticker, which heals a stuck partial batch. Meaningful only with
	// BatchSize > 1.
	BatchDelay time.Duration

	// IncrementalGossip enables the §10.4 communication reduction: each
	// replica remembers what it has sent to each peer and gossips only new
	// operations, newly done/stable identifiers, and lowered labels.
	// As in the paper, this requires reliable FIFO channels: with full
	// gossip every message is self-contained (its D entries come with their
	// R descriptors and L labels), so reordering is harmless, but a delta
	// depends on its predecessors having been delivered.
	IncrementalGossip bool

	// AdaptiveBatch turns the static BatchSize ceiling into a per-target
	// feedback loop (DESIGN.md §12): each front-end submission buffer and
	// each per-peer gossip coalescer runs a batchController that grows or
	// shrinks its effective batch target inside [1, BatchSize] from the
	// queue depth observed at flush opportunities — deep backlogs earn big
	// batches, light traffic flushes near-immediately, and an idle stream
	// decays back to the unbatched latency profile. Meaningful only with
	// BatchSize > 1 (there is no range to adapt over otherwise); off, the
	// static BatchSize trigger of DESIGN.md §8 applies unchanged. Purely
	// local — no wire or protocol change, so members need not agree.
	AdaptiveBatch bool

	// CompactGossip lets this replica send coalesced gossip as the
	// versioned compact wire form (CompactGossipMsg, DESIGN.md §12):
	// client-id interning, varint label deltas against the frame's base
	// label, descriptor dedup, and one shared encoder stream per frame in
	// place of gob's per-frame type descriptors. It is negotiated per peer
	// — compact frames go only to peers whose transport announced
	// FeatureCompactGossip support (transport.FeatureNegotiator), so a
	// cluster can run mixed versions: everyone else receives the legacy
	// GossipMsg/BatchGossipMsg forms. Off, the replica neither announces
	// the feature nor sends compact frames — it behaves like a pre-feature
	// build, which is what the mixed-version interop tests simulate.
	// Meaningful with the coalesced gossip path (BatchSize > 1 and
	// IncrementalGossip).
	CompactGossip bool
}

// FlushPeriod is the batch-flush ticker period for an enabled batched hot
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
// decision; see BatchSize and DESIGN.md §8). AdaptiveBatch and
// CompactGossip are on: both are inert until batching is enabled, and once
// it is, self-tuning targets and the negotiated compact wire form are
// strictly better defaults than hand-tuned static ones (DESIGN.md §12).
func DefaultOptions() Options {
	return Options{
		Memoize:           true,
		Prune:             true,
		IncrementalGossip: true,
		AdaptiveBatch:     true,
		CompactGossip:     true,
	}
}
