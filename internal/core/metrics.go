package core

// ReplicaMetrics counts the work a replica has performed. The ablation
// experiments (E6–E8) read these counters; they are monotone and are
// snapshotted under the replica mutex.
type ReplicaMetrics struct {
	// RequestsReceived counts ⟨request⟩ messages (including retransmissions).
	RequestsReceived uint64
	// DoItCount counts do_it actions (label assignments).
	DoItCount uint64
	// GossipSent / GossipReceived count gossip messages.
	GossipSent     uint64
	GossipReceived uint64
	// GossipSuppressed counts gossip rounds to a peer skipped because the
	// peer was owed nothing — no change, no overdue resend, no
	// acknowledgement: idle clusters send nothing. GossipResent counts
	// frames that resent the change log after an overdue acknowledgement;
	// on a lossless network it stays near 0, since each change is sent
	// once. GossipHeaderRejects counts frame headers ignored as impossible
	// for an honest sender (Base above Seq, or an Ack above anything sent
	// to that peer).
	GossipSuppressed    uint64
	GossipResent        uint64
	GossipHeaderRejects uint64
	// ResponsesSent counts ⟨response⟩ messages.
	ResponsesSent uint64
	// RequestBatchesReceived / ResponseBatchesSent count the batched hot
	// path's frames (DESIGN.md §8): one BatchRequestMsg admitted, one
	// BatchResponseMsg sent. The per-element counters above keep counting
	// elements, so RequestsReceived / RequestBatchesReceived is the
	// achieved request batch size.
	RequestBatchesReceived uint64
	ResponseBatchesSent    uint64
	// SnapshotsInstalled counts range answers whose spliced prefix extended
	// the local memoized prefix; SnapshotsIgnored counts answers carrying a
	// prefix no longer than what is already memoized locally.
	SnapshotsInstalled uint64
	SnapshotsIgnored   uint64
	// SnapshotOpsSeeded counts operations that became locally done through
	// prefix installation rather than descriptor replay.
	SnapshotOpsSeeded uint64
	// Range catch-up counters (DESIGN.md §5). RangeServed counts range
	// requests this replica answered; RangeChunksSent/Received count
	// RangeResponseMsg frames (Done chunks included). RangeCatchups counts
	// client rounds completed; RangeRetries counts rounds rotated to
	// another peer; RangeRejects counts chunks refused (stale nonce, gaps,
	// or a transfer the snapshot validator turned away).
	RangeServed         uint64
	RangeChunksSent     uint64
	RangeChunksReceived uint64
	RangeCatchups       uint64
	RangeRetries        uint64
	RangeRejects        uint64
	// CompactGossipSent / CompactGossipReceived count CompactGossipMsg
	// frames (the negotiated delta-encoded wire form of gossip deltas,
	// DESIGN.md §12). CompactGossipFallbacks always reads 0: it counted
	// deltas whose operators failed the codec's own gob encode, and the
	// operators now ride the transport's stream instead. It stays because
	// the benchmark reports it. CompactGossipRejects counts received
	// compact frames dropped because decoding failed — corrupt or truncated
	// payloads are refused, never partially applied.
	CompactGossipSent      uint64
	CompactGossipReceived  uint64
	CompactGossipFallbacks uint64
	CompactGossipRejects   uint64
	// PipelineRuns counts batches delivered by the shard-per-core runtime's
	// worker loop (DESIGN.md §9): one run is one mutex round over a replica's
	// drained inbound backlog. RequestsReceived / PipelineRuns etc. give the
	// achieved pipeline batch size under the staged runtime.
	PipelineRuns uint64
	// Faults counts rejected-input faults (see FaultCode): conditions the
	// algorithm's invariants rule out for honest senders, refused instead
	// of crashing the replica.
	Faults uint64
	// ResizeRedirects counts requests refused with a Redirect because live
	// resharding froze or moved their object away from this shard.
	ResizeRedirects uint64
	// RequestsParkedRecovering counts requests parked during §9.3
	// recovery (a recovering replica has not yet re-learned its
	// resize obligations; parked requests re-enter admission once every
	// peer has answered).
	RequestsParkedRecovering uint64
	// AppliesForResponse counts data type Apply calls made while computing
	// response values. Without memoization this grows quadratically with
	// history length; with it, each position of the unstable suffix is
	// applied once into the suffix cache, and again only after a reorder
	// moved an operation below it.
	AppliesForResponse uint64
	// AppliesForMemoize counts Apply calls that advanced the memoized
	// prefix (each done operation is memoized exactly once, by this apply
	// or by adopting the suffix cache's state, which is not counted).
	AppliesForMemoize uint64
	// AppliesForCurrentState counts Apply calls maintaining cs_r in commute
	// mode (each done operation applied exactly once, at do-time).
	AppliesForCurrentState uint64
	// DoneOps, StableOps, MemoizedOps, PendingOps, RetainedOps are state
	// sizes at snapshot time (RetainedOps counts full descriptors held,
	// which pruning reduces).
	DoneOps     int
	StableOps   int
	MemoizedOps int
	PendingOps  int
	RetainedOps int
}

// Add accumulates o into m field-by-field — the single place aggregate
// metrics (Cluster.TotalMetrics, Keyspace.TotalMetrics) sum from, so a new
// counter cannot be forgotten in one of several hand-written loops.
func (m *ReplicaMetrics) Add(o ReplicaMetrics) {
	m.RequestsReceived += o.RequestsReceived
	m.DoItCount += o.DoItCount
	m.GossipSent += o.GossipSent
	m.GossipReceived += o.GossipReceived
	m.GossipSuppressed += o.GossipSuppressed
	m.GossipResent += o.GossipResent
	m.GossipHeaderRejects += o.GossipHeaderRejects
	m.ResponsesSent += o.ResponsesSent
	m.RequestBatchesReceived += o.RequestBatchesReceived
	m.ResponseBatchesSent += o.ResponseBatchesSent
	m.SnapshotsInstalled += o.SnapshotsInstalled
	m.SnapshotsIgnored += o.SnapshotsIgnored
	m.SnapshotOpsSeeded += o.SnapshotOpsSeeded
	m.RangeServed += o.RangeServed
	m.RangeChunksSent += o.RangeChunksSent
	m.RangeChunksReceived += o.RangeChunksReceived
	m.RangeCatchups += o.RangeCatchups
	m.RangeRetries += o.RangeRetries
	m.RangeRejects += o.RangeRejects
	m.CompactGossipSent += o.CompactGossipSent
	m.CompactGossipReceived += o.CompactGossipReceived
	m.CompactGossipFallbacks += o.CompactGossipFallbacks
	m.CompactGossipRejects += o.CompactGossipRejects
	m.PipelineRuns += o.PipelineRuns
	m.Faults += o.Faults
	m.ResizeRedirects += o.ResizeRedirects
	m.RequestsParkedRecovering += o.RequestsParkedRecovering
	m.AppliesForResponse += o.AppliesForResponse
	m.AppliesForMemoize += o.AppliesForMemoize
	m.AppliesForCurrentState += o.AppliesForCurrentState
	m.DoneOps += o.DoneOps
	m.StableOps += o.StableOps
	m.MemoizedOps += o.MemoizedOps
	m.PendingOps += o.PendingOps
	m.RetainedOps += o.RetainedOps
}
