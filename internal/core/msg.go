// Package core is the deployable implementation of the eventually-
// serializable data service: the lazy-replication algorithm of §6 of
// Fekete et al. (front ends, replicas, gossip, labels), extended with the
// §10 optimizations (memoized solid prefix, memory pruning, commutativity
// mode, incremental gossip made loss-tolerant by acknowledgements).
//
// The same algorithm is transliterated as I/O automata in internal/model
// for specification checking; this package is the version a downstream user
// runs, over either the deterministic simulated network or the live
// goroutine transport.
package core

import (
	"fmt"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// RequestMsg is a ⟨"request", x⟩ message from a front end to a replica
// (message set 𝓜_req, §6.1).
type RequestMsg struct {
	Op ops.Operation
}

// ResponseMsg is a ⟨"response", x, v⟩ message from a replica to a front end
// (message set 𝓜_resp, §6.1). Redirect, when non-nil, is not a response at
// all: the replica refused the request because live resharding has frozen
// or moved the operation's object, and the front end must route elsewhere
// (Value is then meaningless and the operation stays pending).
type ResponseMsg struct {
	ID       ops.ID
	Value    dtype.Value
	Redirect *Redirect
}

// Redirect is a replica's "wrong shard" refusal during or after a live
// resize (the ErrWrongShard mechanism). Final=false means the object's
// migration is still in progress: keep the operation pending and retry —
// the source still owns the history. Final=true means the migration of
// this object is complete and the redirecting replica will never accept
// the operation; once EVERY replica of the source shard has answered
// Final for an operation, the submitter has proof the operation was never
// accepted into the source's order (received ids survive in rcvd_r
// forever, and frozen replicas never admit new ones) and must replay it
// at the destination the Epoch ring names. The install the destination
// was seeded with is stable at every destination replica before any
// Final redirect is sent, so replayed operations are ordered after it by
// label freshness alone.
type Redirect struct {
	From   label.ReplicaID // replica that refused
	Epoch  int             // ring epoch the key moved at
	Shards int             // shard count at Epoch: ring.New(Shards) routes the key
	Final  bool            // migration complete: replay at the destination
	// HasInstall/InstallID describe the KeyInstall that seeded the
	// destination (absent for objects that moved with no history). Used to
	// translate stale prev-set references to source-era operations.
	HasInstall bool
	InstallID  ops.ID
	// Members, when non-zero, makes this a WRONG-MEMBER refusal instead of a
	// resize verdict (shard placement, DESIGN.md §13): the request reached a
	// fleet member that does not host the target shard, because the sender's
	// peer table was computed from an older placement. Members is the
	// refusing member's fleet size — placement is a pure function of
	// (shards, replicas, members), so that one integer names the whole
	// placement epoch. The operation stays pending; the submitter re-points
	// its peer table (core.ApplyPlacement with the grown placement) and
	// ordinary retransmission delivers to the right member. The resize
	// fields above are meaningless on a wrong-member refusal.
	Members int
}

// BatchRequestMsg carries many ⟨"request"⟩ messages in one frame — the
// batched hot path (DESIGN.md §8). It is semantically exactly the sequence
// of its elements: the receiving replica admits each operation in order, as
// if len(Ops) RequestMsgs had arrived back to back, then runs its internal
// actions once for the whole batch. A refused or malformed element affects
// only itself; the rest of the frame is processed normally.
type BatchRequestMsg struct {
	Ops []ops.Operation
}

// BatchResponseMsg carries many ⟨"response"⟩ messages for one front end in
// one frame (the response side of the batched hot path). Elements are
// delivered to the front end in order; each is handled exactly as a lone
// ResponseMsg (first response wins, duplicates ignored, Redirects routed to
// the redirect handler).
type BatchResponseMsg struct {
	Resps []ResponseMsg
}

// BatchGossipMsg is a gossip frame of older builds that no peer sends and
// no replica accepts any more (the TCP wire version refuses those builds).
// The declaration stays only because the benchmark module's trace names it
// in a type switch.
type BatchGossipMsg struct {
	From label.ReplicaID
	Msgs []GossipMsg
}

// GossipMsg is a ⟨"gossip", R, D, L, S⟩ message between replicas (message
// set 𝓜_gossip, §6.1). R carries full operation descriptors (the receiver
// may not know them yet); D and S are identifier sets (their descriptors are
// in R or were carried by earlier gossip); L is the label-function snapshot.
//
// As §10.4 allows, the fields carry only the changes in the sender's change
// log between positions Base and Seq (gossip.go), not the whole state. The
// header makes that loss-tolerant without FIFO channels: Epoch is the
// sender's incarnation (the log position it began at), and Ack is the
// sender's watermark in the destination's own log — everything below it
// has arrived. A lost frame is resent once its acknowledgement is overdue.
// A range answer's tail carries the whole state, from Base = Epoch.
//
// D, L and S name identifiers by runs of one client's consecutive sequence
// numbers, the per-client summaries of lazy replication (Ladin et al.,
// TOCS 1992): a client issues its identifiers in sequence, so a delta's
// hundreds of identifiers are a few runs. A run names its client by its
// index in Clients, so the runs hold no pointer and a frame states each
// client once. L lists its runs in the order the sender's log recorded the
// labels. An id may appear in it twice; merging takes the minimum, so a
// repeat changes nothing.
type GossipMsg struct {
	From    label.ReplicaID
	R       []ops.Operation
	Clients []string
	D       []IDRun
	L       []LabelRun
	S       []IDRun

	Epoch, Base, Seq, Ack uint64
}

// IDRun names the identifiers (c, Seq) through (c, Seq+N−1) of the client
// c = Clients[Client] of its frame. N is at least 1, and Seq+N−1 does not
// wrap.
type IDRun struct {
	Seq       uint64
	Client, N uint32
}

// LabelRun is a run of L: its k-th identifier is labelled (Label.Seq+k,
// Label.Replica). A run with an ∞ label names one identifier.
type LabelRun struct {
	IDRun
	Label label.Label
}

// label returns the label of the run's k-th identifier.
func (u *LabelRun) label(k uint32) label.Label {
	if k == 0 {
		return u.Label
	}
	return label.Make(u.Label.Seq+uint64(k), u.Label.Replica)
}

// checkRuns reports the first run no honest sender writes — one naming no
// identifier or a client past Clients, one whose sequence numbers or
// labels wrap, or an ∞ label given to more than one identifier — or, when
// the runs are sound, a client table longer than the runs that index it,
// or R's descriptors and the runs' identifiers together numbering more
// than limit. An honest frame names a client only for a run of it, and
// the merge makes a record per identifier, so these bound what one frame
// can make a replica hold.
func (g *GossipMsg) checkRuns(limit uint64) error {
	if runs := len(g.D) + len(g.L) + len(g.S); len(g.Clients) > runs {
		return fmt.Errorf("%d clients for %d runs", len(g.Clients), runs)
	}
	n, clients := uint64(len(g.R)), uint32(len(g.Clients))
	for _, runs := range [...][]IDRun{g.D, g.S} {
		for i := range runs {
			if u := &runs[i]; !u.sound(clients) {
				return fmt.Errorf("run of client %d from %d names %d identifiers", u.Client, u.Seq, u.N)
			}
			n += uint64(runs[i].N)
		}
	}
	for i := range g.L {
		u := &g.L[i]
		if !u.sound(clients) || u.N > 1 && (u.Label.IsInf() || u.Label.Seq+uint64(u.N-1) < u.Label.Seq) {
			return fmt.Errorf("L run of client %d from %d: %d identifiers from label %v", u.Client, u.Seq, u.N, u.Label)
		}
		n += uint64(u.N)
	}
	if n > limit {
		return fmt.Errorf("%d identifiers past the frame's %d log entries", n, limit)
	}
	return nil
}

// sound reports whether the run names at least one identifier of one of
// the frame's clients, and its sequence numbers do not wrap.
func (u *IDRun) sound(clients uint32) bool {
	return u.N > 0 && u.Client < clients && u.Seq+uint64(u.N-1) >= u.Seq
}

// frameLimit bounds what a delta frame with header range [base, seq) may
// name: at most one descriptor or identifier per log entry (buildDelta),
// and at most maxFrameEntries entries (nextFrame), whatever the header
// claims — the sender picks Seq, so its range alone bounds nothing.
func frameLimit(base, seq uint64) uint64 {
	if base > seq {
		return 0
	}
	return min(seq-base, maxFrameEntries)
}

// SubscribableGossip marks GossipMsg as gossip-topic traffic (see
// transport.Subscribable).
func (GossipMsg) SubscribableGossip() {}

// --- state transfer: descriptor-range catch-up (DESIGN.md §5) ---
//
// The one way replica state crosses the wire outside gossip. §10.2 pruning
// means a recovering (or joining) replica cannot rebuild the shard history
// from descriptors alone — one pruned everywhere can never be re-learned —
// so the history travels as the serving peer's memoized solid prefix: the
// BlocksByRange discipline. RangeRequestMsg names the requester's
// solid-prefix length; the serving peer streams SnapOp chunks for the
// missing slice and finishes with the post-prefix state, its label
// watermark, its resize records, and a self-contained tail gossip covering
// its unsolid suffix. The requester splices the chunks onto its own prefix,
// routes the result through the install validator (installSnapshot), and
// merges the tail. Crash recovery runs one such round per peer (the §9.3
// "response from each replica" barrier); a live join runs one.

// SnapOp is one operation of a memoized solid prefix in a range answer,
// reduced to what the receiver needs when the full descriptor may have been
// pruned everywhere — its identity, its final label (solid labels never
// change, Lemma 10.2), its memoized value, whether the sender had it
// stable, and its strict flag (so a retransmitted request for it is still
// answered under the strict discipline).
type SnapOp struct {
	ID     ops.ID
	Label  label.Label
	Value  dtype.Value
	Stable bool
	Strict bool
	// Key is the object the operation addressed (empty for non-keyed
	// types). It reseeds the receiver's prune-surviving key index, which a
	// crash wiped along with everything else: a later resize may use the
	// recovered replica as its exporter, and an id missing from the index
	// would be missing from the KeyInstall's subsume set — breaking both
	// the exactly-once replay proof and stale prev translation.
	Key string
}

// RangeRequestMsg asks one hosting peer for the slice of the shard's
// history the requester is missing. Have is the length of the requester's
// memoized solid prefix (the first index it wants); Nonce pairs the
// response chunks with one request round, so chunks from an abandoned
// round (after a retry rotated to another peer) are ignored.
//
// The answer covers the serving peer's whole change log: its tail's header
// gives the log position the requester's watermark for that peer starts
// at, and the peer's deltas to the requester restart there.
type RangeRequestMsg struct {
	From  label.ReplicaID
	Have  int
	Nonce uint64
}

// RangeResponseMsg is one chunk of a range answer. Non-final chunks carry
// only Ops — SnapOps for doneSeq[Offset : Offset+len(Ops)] of the serving
// peer's memoized prefix. The final chunk (Done) additionally carries the
// canonical state after the FULL prefix, the peer's label watermark, its
// resize records, and the tail gossip. Total is the peer's memoized length,
// so the requester can tell an empty answer ("I have nothing you lack")
// from a truncated one.
type RangeResponseMsg struct {
	From     label.ReplicaID
	Nonce    uint64
	Offset   int
	Ops      []SnapOp
	Done     bool
	DataType string
	Total    int
	// Final-chunk fields (valid only with Done). HasState distinguishes a
	// peer with no prefix to encode (nothing memoized yet, or a data type
	// without dtype.Snapshotter) — such a peer serves no chunks and answers
	// Done with a full tail gossip, which is complete because a replica
	// that cannot snapshot never prunes.
	HasState  bool
	State     []byte
	Watermark uint64
	Resizes   []ResizeRecord
	Tail      GossipMsg
}

// --- live-resharding control messages ---
//
// These drive the per-key migration protocol of Keyspace.Resize (DESIGN.md
// §7). They are control plane only: the migrated state itself travels as an
// ordinary dtype.KeyInstall operation through the destination shard's
// request pipeline, so the data plane needs no new trust or ordering rules.

// FreezeKeysMsg tells a source-shard replica that a resize to NewShards is
// in progress: from now on it must refuse (with a Redirect) any request for
// an object the new ring takes away from its shard, unless the operation id
// is already in rcvd_r (a source-era operation, which still completes
// here). The replica answers with a FreezeAckMsg to ReplyTo.
type FreezeKeysMsg struct {
	Epoch     int // resize epoch being executed
	OldShards int
	NewShards int
	// Nonce pairs acks with broadcast rounds: the driver needs a FULL fresh
	// round of acks with an unchanged drain set before exporting, so an op
	// accepted by a replica that crashed and recovered mid-freeze is still
	// counted.
	Nonce   uint64
	ReplyTo transport.NodeID
}

// FrozenKey is one moving object in a FreezeAckMsg: the ids of source-era
// operations on it this replica has received but does not yet know stable.
// (Stable operations are already done at every replica — including the
// exporter — so they need no explicit mention.)
type FrozenKey struct {
	Key string
	IDs []ops.ID
}

// FreezeAckMsg is a replica's answer to FreezeKeysMsg: proof it is frozen
// for Epoch as of this ack, plus every source-era operation the driver's
// drain must wait for. Once the driver holds a full round of acks whose
// union adds nothing new, the source-era history of every moving key is
// closed.
type FreezeAckMsg struct {
	From  label.ReplicaID
	Shard int
	Epoch int
	Nonce uint64
	Keys  []FrozenKey
}

// MigratedKey is the per-key completion record: the destination now owns
// the key, seeded by InstallID when the key had history (HasInstall).
type MigratedKey struct {
	Key        string
	HasInstall bool
	InstallID  ops.ID
}

// KeyMigratedMsg tells source-shard replicas that the listed keys finished
// migrating (their installs are stable at every destination replica):
// requests for them are now refused with Final redirects, which is what
// lets submitters replay safely. Replicas keep these records forever —
// a late retransmission must be redirected years later — and re-learn them
// from their store and the range answers' Done chunks after a crash.
type KeyMigratedMsg struct {
	Epoch     int
	OldShards int
	Shards    int // shard count at Epoch
	Keys      []MigratedKey
}

// ResizeCompleteMsg closes a resize epoch on a source replica: every
// moving key not individually migrated provably had no source-era history,
// so requests for such keys get Final redirects with no install. The
// replica confirms with ResizeCompleteAckMsg (the driver rebroadcasts
// until every source replica has acked — a replica left un-closed would
// answer "in progress" forever).
type ResizeCompleteMsg struct {
	Epoch     int
	OldShards int
	Shards    int
	ReplyTo   transport.NodeID
}

// ResizeCompleteAckMsg confirms a ResizeCompleteMsg.
type ResizeCompleteAckMsg struct {
	From  label.ReplicaID
	Shard int
	Epoch int
}

// ResizeRecord is a replica's durable view of one resize epoch, carried in
// the Done chunk of range answers so a crashed replica re-learns its freeze
// and migration obligations before serving requests again.
type ResizeRecord struct {
	Epoch     int
	OldShards int
	NewShards int
	Complete  bool
	Migrated  []MigratedKey
}

// EstimateSize approximates the wire size in bytes of a core message, for
// the communication experiments (E8). Operation descriptors weigh more than
// bare identifiers, a gossip frame names each client once, a run weighs a
// client reference, a sequence number and a length, and a label run adds
// its first label.
func EstimateSize(payload any) int {
	const (
		idBytes     = 16 // a client string and a sequence number
		clientBytes = 8
		runBytes    = idBytes - clientBytes + 2
		labelBytes  = 12
		opBytes     = idBytes + 24 // id + operator + flags
		headerSize  = 8
	)
	switch m := payload.(type) {
	case RequestMsg:
		return headerSize + opBytes + idBytes*len(m.Op.Prev)
	case ResponseMsg:
		return headerSize + idBytes + 16
	case BatchRequestMsg:
		size := headerSize
		for _, x := range m.Ops {
			size += opBytes + idBytes*len(x.Prev)
		}
		return size
	case BatchResponseMsg:
		return headerSize + len(m.Resps)*(idBytes+16)
	case GossipMsg:
		size := headerSize
		for _, x := range m.R {
			size += opBytes + idBytes*len(x.Prev)
		}
		size += clientBytes * len(m.Clients)
		size += runBytes * len(m.D)
		size += (runBytes + labelBytes) * len(m.L)
		size += runBytes * len(m.S)
		return size
	case RangeRequestMsg:
		return headerSize + 16
	case RangeResponseMsg:
		// Per SnapOp: id + label + value + two flags + object key.
		size := headerSize + 16 + len(m.Ops)*(idBytes+labelBytes+16+2) + len(m.State)
		for _, so := range m.Ops {
			size += len(so.Key)
		}
		if m.Done {
			size += EstimateSize(m.Tail) - headerSize
		}
		return size
	default:
		return headerSize
	}
}
