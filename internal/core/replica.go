package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// Replica is one data replica of the ESDS algorithm (Fig. 7 of the paper,
// plus the §10 optimizations selected in Options). It keeps a full copy of
// the object, assigns labels to operations from its own partition ℒ_r, and
// exchanges gossip with its peers. All state is guarded by a single mutex so
// the replica is safe both on the single-threaded simulated network and on
// the live goroutine transport.
type Replica struct {
	mu sync.Mutex

	id    label.ReplicaID
	n     int // number of replicas
	shard int // keyspace shard this replica serves (0 when unsharded)
	dt    dtype.DataType
	net   transport.Network
	node  transport.NodeID
	peers []transport.NodeID // node ids of ALL replicas, indexed by ReplicaID
	opt   Options

	// ids is the identifier table (idtable.go): one record per operation
	// identifier this replica has heard of, holding its membership in every
	// per-identifier set of Fig. 7 and the §10 optimizations. all is the
	// done/stable mask of an id in every replica's set (stable_r[r] =
	// ∩_i done_r[i], Invariant 7.2, is done == all). doneLocal, stableLocal
	// and retainedN count |done_r[r]|, |stable_r[r]| and the descriptors
	// still held.
	ids                               idTable
	all                               uint64
	doneLocal, stableLocal, retainedN int

	// pending_r: requests awaiting a response (Fig. 7), in arrival order;
	// recPending dedupes.
	pendingQueue []*idRec

	// rcvdQueue is the arrival order of received, not-yet-locally-done ops.
	rcvdQueue []*idRec

	// The label generator over ℒ_r (§6.3); label_r lives in the records.
	gen *label.Generator

	// doneSeq is done_r[r] sorted ascending by current label: the local
	// total order lc_r (Invariant 7.15). The prefix [0:memoized) is solid
	// and never reordered (Lemma 10.2); the suffix is re-sorted lazily:
	// ops done since the last sort sit past sortedTo, and seqDirty records a
	// lowered label of a done op, which may move anything in the suffix.
	doneSeq  []ops.ID
	sortedTo int
	seqDirty bool

	// deferred: ids reported done elsewhere (gossip D/S) whose descriptor or
	// label has not arrived yet (possible when gossip frames are lost or
	// reordered). Retried after every message; recDeferred dedupes.
	deferredQueue []*idRec

	// Memoization (§10.1): the state after the solid prefix (its values are
	// in the records).
	memoized      int
	memoState     dtype.State
	lastMemoLabel label.Label
	maxStable     label.Label // max label among stable_r[r]; ∞ when none yet

	// Suffix cache (DESIGN.md §8, "Response computation"): sufStates[i] and
	// sufVals[i] are the state after, and the value of, doneSeq[memoized+i]
	// replayed from memoState, for i < len(sufVals). Only valueFor's replay
	// extends it (and only under Memoize), ensureSorted cuts it at the first
	// position a sort moved, and advanceMemo adopts its head instead of
	// applying again.
	sufStates []dtype.State
	sufVals   []dtype.Value

	// Commute mode (§10.3): current state after all locally done ops in
	// application order (the value each op produced is in its record).
	curState dtype.State

	// Gossip (gossip.go): glog is the change log, holding log positions
	// logBase onward; epoch is the position this incarnation's log began
	// at; links[i] is the link with peer i; round counts gossip rounds;
	// ackWait and ackDev are the smoothed mean and deviation of the rounds
	// a peer takes to acknowledge a frame.
	glog            []logEntry
	logBase         uint64
	epoch           uint64
	links           []peerLink
	round           uint64
	ackWait, ackDev float64

	// negotiator is the transport's capability channel, nil when it has no
	// wire to negotiate over (DESIGN.md §12; see SendGossip).
	negotiator transport.FeatureNegotiator

	// sortScratch is the reusable buffer ensureSorted pre-fetches labels
	// into: the nearly-sorted suffix pass is the label-compare hot path,
	// and re-reading the label table per comparison (plus re-allocating the
	// buffer per call) dominated its profile.
	sortScratch []labeledID

	// Crash recovery (§9.3): the stable store holding locally generated
	// labels, and the peers whose range answer has installed since Recover
	// (the replica resumes once all n-1 have; nil outside a recovery).
	store        StableStore
	crashed      bool
	recovering   bool
	recoveryAcks map[label.ReplicaID]struct{}

	// Descriptor-range catch-up (range.go, DESIGN.md §5): the client-side
	// state of one range round. rangeNonce is 0 when no round is open;
	// rangeSeq is the monotone nonce source (it survives Crash so a stale
	// pre-crash chunk can never match a post-crash round). rangeProgress
	// records a chunk accepted since the last RetryRecovery, which then
	// leaves the streaming round alone; rangeDone holds a Done chunk that
	// arrived before the chunks it completes, and rangeSeen is the gossip
	// round the request left in or a chunk last arrived in. rangeChunk is
	// the SnapOp count per chunk this replica SERVES: rangeChunkOps,
	// lowered only by tests.
	rangeNonce    uint64
	rangeSeq      uint64
	rangePeer     int
	rangeHave     int
	rangeBuf      []SnapOp
	rangeDone     *RangeResponseMsg
	rangeSeen     uint64
	rangeTries    int
	rangeProgress bool
	rangeChunk    int

	// storeFailed latches after a StableStore write error: the replica
	// stops labeling new operations (see tryDoIt) because an unpersisted
	// label violates the §9.3 safety condition.
	storeFailed bool

	// resizes is the live-resharding history this replica participates in
	// as a source shard: freezes, migrated keys, completed epochs (see
	// migrate.go). Volatile — re-learned from the store and the range
	// answers' Done chunks after a crash. recoveryParked holds requests
	// received during recovery, admitted only once that history is whole
	// again.
	resizes        []*replicaResize
	recoveryParked []ops.Operation

	// faults is the bounded log of rejected-input faults (see errors.go).
	faults []*ReplicaFault

	// queue is the replica's inbound queue on the shard-per-core runtime
	// (nil on the legacy per-delivery path). Set once at construction,
	// never mutated: reads need no lock.
	queue *replicaQueue

	metrics ReplicaMetrics
}

// labeledID pairs an identifier with its label for sorting.
type labeledID struct {
	id ops.ID
	l  label.Label
}

// ReplicaConfig assembles a replica.
type ReplicaConfig struct {
	ID       label.ReplicaID
	Peers    []transport.NodeID // node ids of all replicas, indexed by ReplicaID
	DataType dtype.DataType
	Network  transport.Network
	Options  Options
	// Store, if non-nil, persists locally generated labels for the §9.3
	// crash-recovery protocol (see recovery.go). Without a store, Crash
	// followed by Recover is only safe if the replica's labels had been
	// gossiped before the crash.
	Store StableStore
	// Shard is the keyspace shard this replica serves: responses are
	// addressed to the front ends of the same shard. Zero for unsharded
	// clusters.
	Shard int
	// Runtime, if non-nil, runs the replica on the shard-per-core worker
	// pool: deliveries are enqueued on the worker owning this replica's
	// shard instead of being handled on transport goroutines, and
	// consecutive hot-path messages are folded into single locked batches.
	// Nil keeps the legacy path (one handler call per delivery), which
	// SimNet determinism and the single-cluster benchmarks rely on.
	Runtime *ShardRuntime
}

// NewReplica constructs a replica and registers it on the network. The
// paper assumes at least two replicas; a single replica is permitted here
// (everything it does is trivially stable) to support the centralized
// baseline.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.DataType == nil {
		panic("core: nil data type")
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= len(cfg.Peers) {
		panic(fmt.Sprintf("core: replica id %d out of range for %d peers", cfg.ID, len(cfg.Peers)))
	}
	n := len(cfg.Peers)
	if n > MaxReplicas {
		panic(fmt.Sprintf("core: invalid replica count %d (1 to %d)", n, MaxReplicas))
	}
	r := &Replica{
		id:         cfg.ID,
		n:          n,
		shard:      cfg.Shard,
		dt:         cfg.DataType,
		net:        cfg.Network,
		node:       cfg.Peers[cfg.ID],
		peers:      append([]transport.NodeID(nil), cfg.Peers...),
		opt:        cfg.Options,
		ids:        newIDTable(),
		all:        ^uint64(0) >> (64 - n),
		gen:        label.NewGenerator(cfg.ID),
		memoState:  cfg.DataType.Initial(),
		maxStable:  label.Infinity,
		curState:   cfg.DataType.Initial(),
		store:      cfg.Store,
		rangeChunk: rangeChunkOps,
	}
	r.startLog(uint64(time.Now().UnixNano()))
	// §10.2 pruning discards descriptors that only a state transfer can
	// stand in for afterwards, so it is on only for a type that can encode
	// its state; any other type retains every descriptor and recovers by
	// full-tail replay (handleRangeRequest).
	r.opt.Prune = r.opt.Prune && dtype.CanSnapshot(cfg.DataType)
	if fn, ok := cfg.Network.(transport.FeatureNegotiator); ok {
		r.negotiator = fn
		fn.AnnounceFeatures(r.node, transport.FeatureCompactGossip)
	}
	h := r.handleMessage
	if cfg.Runtime != nil {
		q := cfg.Runtime.attach(cfg.Shard, r)
		r.queue = q
		// The registered handler only enqueues — all replica work happens
		// on the owning worker — so the transport may call it synchronously
		// from the sender or reader goroutine when it supports that,
		// skipping the per-node mailbox goroutine and its hand-off.
		h = func(m transport.Message) { q.w.enqueue(q, queueItem{msg: m}) }
		if ir, ok := cfg.Network.(transport.InlineRegistrar); ok {
			ir.RegisterInline(r.node, h)
			return r
		}
	}
	cfg.Network.Register(r.node, h)
	return r
}

// Dispatch runs fn on the replica's owning worker, serialized with its
// message handling — the ownership discipline for ticker work (gossip
// rounds, batch flushes) under the shard-per-core runtime. Without a
// runtime, or once it is closed, fn runs synchronously on the caller.
func (r *Replica) Dispatch(fn func()) {
	if q := r.queue; q != nil {
		if q.w.enqueue(q, queueItem{fn: fn}) {
			return
		}
	}
	fn()
}

// deliverBatch processes one drained backlog of the replica's inbound
// queue on its owning worker: consecutive hot-path messages fold into a
// single locked run — one mutex round and one process() pass for the whole
// run, the staged admit→label→gossip→memoize pipeline of DESIGN.md §9 —
// while control messages (range catch-up, resize) and dispatched functions
// act as barriers handled by the ordinary per-message paths.
func (r *Replica) deliverBatch(items []queueItem) {
	var run []transport.Message
	flush := func() {
		if len(run) > 0 {
			r.deliverRun(run)
			run = run[:0]
		}
	}
	for _, it := range items {
		switch {
		case it.fn != nil:
			flush()
			it.fn()
		case hotPath(it.msg.Payload):
			run = append(run, it.msg)
		default:
			flush()
			r.handleMessage(it.msg)
		}
	}
	flush()
}

// hotPath reports whether a payload is one deliverRun applies: requests,
// batched or not, and gossip.
func hotPath(payload any) bool {
	switch payload.(type) {
	case RequestMsg, BatchRequestMsg, GossipMsg, CompactGossipMsg:
		return true
	}
	return false
}

// deliverRun is the one receive path for hot-path messages: receive_cr
// (⟨"request", x⟩) and receive_r'r(⟨"gossip", R, D, L, S⟩) of Fig. 7 for
// each element in arrival order (a refused or malformed batch element
// affects only itself), then the internal actions once for the whole run —
// sound because they are enabled at any time. Outside the shard runtime
// every delivery is a run of one.
func (r *Replica) deliverRun(run []transport.Message) {
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return
	}
	var redirects []ResponseMsg
	admit := func(x ops.Operation) {
		if resp, refuse := r.admitOrRefuseLocked(x); refuse {
			redirects = append(redirects, resp)
		}
	}
	for _, m := range run {
		switch p := m.Payload.(type) {
		case RequestMsg:
			admit(p.Op)
		case BatchRequestMsg:
			r.metrics.RequestBatchesReceived++
			for _, x := range p.Ops {
				admit(x)
			}
		case GossipMsg:
			r.mergeGossipLocked(p)
		case CompactGossipMsg:
			r.mergeCompactGossipLocked(p)
		}
	}
	if r.queue != nil {
		r.metrics.PipelineRuns++ // a run of the shard runtime's worker
	}
	r.finishLocked(redirects)
}

// finishLocked ends a locked round: re-admit parked requests if a §9.3
// recovery just completed, run the internal actions, unlock, and send the
// refusals (no labels, so no durability wait) and the responses (after the
// round's one group commit). Mutex held on entry; released on return.
func (r *Replica) finishLocked(redirects []ResponseMsg) {
	redirects = append(redirects, r.drainRecoveryParked()...)
	outbox := r.process()
	node, shard := r.node, r.shard
	r.mu.Unlock()
	for _, resp := range redirects {
		r.net.Send(node, FrontEndNodeIn(shard, resp.ID.Client), resp)
	}
	r.deliverOutbox(outbox)
}

// ID returns the replica's identifier.
func (r *Replica) ID() label.ReplicaID { return r.id }

// Node returns the replica's transport address.
func (r *Replica) Node() transport.NodeID { return r.node }

// Metrics returns a snapshot of the replica's counters and state sizes.
func (r *Replica) Metrics() ReplicaMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.metrics
	m.DoneOps = r.doneLocal
	m.StableOps = r.stableLocal
	m.MemoizedOps = r.memoized
	m.PendingOps = len(r.pendingQueue)
	m.RetainedOps = r.retainedN
	return m
}

// handleMessage dispatches a transport delivery.
func (r *Replica) handleMessage(m transport.Message) {
	if hotPath(m.Payload) {
		r.deliverRun([]transport.Message{m})
		return
	}
	switch p := m.Payload.(type) {
	case RangeRequestMsg:
		r.handleRangeRequest(p)
	case RangeResponseMsg:
		r.handleRangeResponse(p)
	case FreezeKeysMsg:
		r.handleFreezeKeys(p)
	case KeyMigratedMsg:
		r.handleKeyMigrated(p)
	case ResizeCompleteMsg:
		r.handleResizeComplete(p)
	default:
		// Unknown payloads are ignored: a replica must tolerate garbage on
		// the wire without violating safety.
	}
}

// admitOrRefuseLocked runs the admission decision for one requested
// operation: park it while a §9.3 recovery is outstanding (keyed
// operations only — see the comment below), refuse it with a Redirect when
// live resharding froze or moved its object, or admit it as pending and
// received — even if received before: the front end may legitimately
// retransmit (§6.3 footnote 4). It returns the refusal to send, if any.
// Mutex held; the caller runs process() and sends refusals after
// unlocking.
func (r *Replica) admitOrRefuseLocked(x ops.Operation) (ResponseMsg, bool) {
	r.metrics.RequestsReceived++
	if _, keyed := dtype.KeyOf(x.Op); keyed && r.recovering {
		// A recovering replica has not yet re-learned which keys live
		// resharding froze here (resize records arrive with the recovery
		// answers); admitting a keyed operation now could smuggle it into
		// rcvd_r — the source-era membership proof — for an object that
		// already moved away. Park the request, NOT into rcvd_r, and
		// re-admit it through the normal path once every peer has answered
		// (§9.3), when the freeze view is whole. Non-keyed operations
		// cannot be subject to resharding and keep the paper's behavior:
		// accepted immediately, processed after recovery.
		r.metrics.RequestsParkedRecovering++
		r.recoveryParked = append(r.recoveryParked, x)
		return ResponseMsg{}, false
	}
	if rd, refuse := r.refuseForResize(x); refuse {
		r.metrics.ResizeRedirects++
		return ResponseMsg{ID: x.ID, Redirect: rd}, true
	}
	r.admitRequest(x)
	return ResponseMsg{}, false
}

// admitRequest records an admitted request as pending and received.
// Mutex held; the resize refusal check has already passed.
func (r *Replica) admitRequest(x ops.Operation) {
	e := r.receiveOp(x)
	if !e.has(recPending) {
		e.flags |= recPending
		r.pendingQueue = append(r.pendingQueue, e)
	}
}

// drainRecoveryParked re-admits requests parked during §9.3 recovery,
// now that the freeze/migration view is whole. It returns the redirects
// to send (outside the mutex). Mutex held.
func (r *Replica) drainRecoveryParked() []ResponseMsg {
	if r.recovering || len(r.recoveryParked) == 0 {
		return nil
	}
	parked := r.recoveryParked
	r.recoveryParked = nil
	var redirects []ResponseMsg
	for _, x := range parked {
		if rd, refuse := r.refuseForResize(x); refuse {
			r.metrics.ResizeRedirects++
			redirects = append(redirects, ResponseMsg{ID: x.ID, Redirect: rd})
			continue
		}
		r.admitRequest(x)
	}
	return redirects
}

// receiveOp records an operation descriptor in rcvd_r and returns its
// record.
func (r *Replica) receiveOp(x ops.Operation) *idRec {
	e := r.ids.rec(x.ID)
	if e.has(recRcvd) {
		return e
	}
	// Only receiveOp retains descriptors, so this is the first.
	e.x = x
	e.flags |= recRcvd | recRetained
	r.retainedN++
	if key, keyed := dtype.KeyOf(x.Op); keyed {
		e.key = key
		e.flags |= recKeyed
		if r.store != nil {
			// The key index outlives pruning (ExportKeyState enumerates a
			// key's full source-era history from it), so it rides the
			// durable journal too — including entries for ops this replica
			// only ever sees via gossip and never labels itself.
			if err := r.store.PersistKey(x.ID, key); err != nil {
				r.fault(FaultStoreFailed, x.ID, "persisting key index entry: %v", err)
				r.storeFailed = true
			}
		}
	}
	r.logChange(e, logR)
	if !e.doneAt(r.id) {
		r.rcvdQueue = append(r.rcvdQueue, e)
	}
	return e
}

// unretain releases e's descriptor (§10.2 pruning).
func (r *Replica) unretain(e *idRec) {
	if e.has(recRetained) {
		r.retainedN--
	}
	e.x = ops.Operation{}
	e.flags &^= recRetained
}

// absorbInstall records the prev constraints a locally done KeyInstall
// satisfies (see dtype.KeyInstall.Subsumes). Mutex held.
func (r *Replica) absorbInstall(x ops.Operation) {
	inst, ok := x.Op.(dtype.KeyInstall)
	if !ok {
		return
	}
	for _, ref := range inst.Subsumes {
		r.ids.rec(ops.ID{Client: ref.Client, Seq: ref.Seq}).flags |= recPrevSatisfied
	}
}

// mergeCompactGossipLocked decodes a delta-encoded gossip frame (DESIGN.md
// §12) and merges each carried element in order — semantically identical
// to the GossipMsg elements it encodes. A frame that fails to decode is
// dropped whole and counted (CompactGossipRejects): the codec rejects
// corruption atomically, so no partial state can be applied. Mutex held.
func (r *Replica) mergeCompactGossipLocked(msg CompactGossipMsg) {
	msgs, err := decodeCompactGossip(msg)
	if err != nil {
		r.metrics.CompactGossipRejects++
		return
	}
	r.metrics.CompactGossipReceived++
	for _, g := range msgs {
		// The decoder stamps every element with the frame's sender and
		// header; applying a header twice changes nothing.
		r.mergeGossipLocked(g)
	}
}

// mergeGossipLocked folds one gossip frame into the replica state — the
// receive_r'r merge of Fig. 7 — without running internal actions (the
// caller does, once per run). The frame's header decides whether its
// content is merged (gossip.go). Mutex held.
func (r *Replica) mergeGossipLocked(msg GossipMsg) {
	r.metrics.GossipReceived++
	from := int(msg.From)
	if from < 0 || from >= r.n || from == int(r.id) {
		return // malformed or self gossip: ignore
	}
	if r.gossipHeaderLocked(from, msg) {
		r.mergeStateLocked(from, msg)
	}
}

// mergeStateLocked is the merge of Fig. 7's receive_r'r: the content of a
// gossip message from replica from. Mutex held.
func (r *Replica) mergeStateLocked(from int, msg GossipMsg) {
	// rcvd_r ← rcvd_r ∪ R.
	for _, x := range msg.R {
		r.receiveOp(x)
	}

	// label_r ← min(label_r, L), observing every label so future labels from
	// this replica sort above everything it has seen (do_it precondition).
	for id, l := range msg.L {
		r.setLabelMin(r.ids.rec(id), l)
	}

	// done_r[r'] ∪= D ∪ S; done_r[r] ∪= D ∪ S; done_r[i] ∪= S for all i;
	// stable_r[r'] ∪= S; stable_r[r] ∪= S (S was stable at the sender, hence
	// done at every replica; the ∩_i done_r[i] part is maintained
	// incrementally by markDoneAt).
	for _, id := range msg.D {
		e := r.ids.rec(id)
		r.markDoneAt(from, e)
		r.markDoneLocal(e)
	}
	for _, id := range msg.S {
		e := r.ids.rec(id)
		r.markDoneEverywhere(e)
		r.markStableAt(from, e)
		r.markStableLocal(e)
	}
}

// setLabelMin merges one label entry, keeping the generator's freshness
// invariant and enforcing that solid labels never change (Lemma 10.2): a
// message that tries to lower a memoized operation's label is rejected and
// recorded as a fault — honest replicas never send one, so accepting it
// could only corrupt the solid prefix.
func (r *Replica) setLabelMin(e *idRec, l label.Label) {
	r.gen.Observe(l)
	if e.has(recMemo) && !e.label.IsInf() && l.Less(e.label) {
		r.fault(FaultMemoLabelChange, e.id, "label %v below solid label %v", l, e.label)
		return
	}
	if !e.setLabelMin(l) {
		return
	}
	r.logChange(e, logL)
	if e.doneAt(r.id) {
		r.seqDirty = true
	}
}

// markDoneAt records that e is done at replica i (i ≠ r); once it is done
// at every replica it is stable here (Invariant 7.2: stable_r[r] =
// ∩_i done_r[i]).
func (r *Replica) markDoneAt(i int, e *idRec) {
	bit := uint64(1) << i
	if e.done&bit != 0 {
		return
	}
	e.done |= bit
	if e.done == r.all {
		r.markStableLocal(e)
	}
}

// markDoneEverywhere records e done at every replica, this one included —
// what a gossip S entry or a stable snapshot operation vouches for.
func (r *Replica) markDoneEverywhere(e *idRec) {
	for i := 0; i < r.n && e.done != r.all; i++ {
		if i == int(r.id) {
			r.markDoneLocal(e)
		} else {
			r.markDoneAt(i, e)
		}
	}
}

// markDoneLocal makes e done at this replica via gossip: it joins doneSeq
// (ordered by its gossiped label) once its label is known; if the label has
// not arrived yet (a gossip frame lost or reordered) it is deferred.
func (r *Replica) markDoneLocal(e *idRec) {
	if e.doneAt(r.id) {
		return
	}
	if e.label.IsInf() {
		r.defer_(e)
		return
	}
	x, ok := e.descriptor()
	if !ok {
		// Done elsewhere but the descriptor has not arrived (possible only
		// while a gossip frame is in flight or awaits its resend).
		r.defer_(e)
		return
	}
	r.addDone(e, x)
}

// addDone makes a labeled operation x locally done — the tail shared by
// do_it and by learning it done from gossip: it joins done_r[r], the local
// order and the change log, an install's subsumed prevs become
// satisfied, and it is stable once every replica has it.
func (r *Replica) addDone(e *idRec, x ops.Operation) {
	r.setDoneLocal(e)
	r.doneSeq = append(r.doneSeq, e.id)
	r.absorbInstall(x)
	if e.done == r.all {
		r.markStableLocal(e)
	}
	r.applyCurrent(e)
}

// setDoneLocal enters e into done_r[r] and the change log. The caller
// places it in doneSeq.
func (r *Replica) setDoneLocal(e *idRec) {
	e.done |= 1 << r.id
	r.doneLocal++
	r.logChange(e, logD)
}

// defer_ queues an id whose done-ness cannot be processed yet.
func (r *Replica) defer_(e *idRec) {
	if e.has(recDeferred) {
		return
	}
	e.flags |= recDeferred
	r.deferredQueue = append(r.deferredQueue, e)
}

// markStableAt records that e is stable at replica i (i ≠ r).
func (r *Replica) markStableAt(i int, e *idRec) {
	e.stable |= 1 << i
}

// markStableLocal records that e is stable at this replica, updating the
// solid-prefix boundary maxStable.
func (r *Replica) markStableLocal(e *idRec) {
	if e.stableAt(r.id) {
		return
	}
	e.stable |= 1 << r.id
	r.stableLocal++
	r.logChange(e, logS)
	if e.label.IsInf() {
		// A stable op is done everywhere, so a label must exist (Invariant
		// 7.5), but it may still be in flight. maxStable will advance when
		// it arrives and the op is re-marked via the deferred queue.
		r.defer_(e)
		return
	}
	if r.maxStable.IsInf() || r.maxStable.Less(e.label) {
		r.maxStable = e.label
	}
	r.maybePrune(e)
}

// applyCurrent maintains cs_r in commute mode: every op is applied exactly
// once, when it becomes locally done.
func (r *Replica) applyCurrent(e *idRec) {
	if !r.opt.Commute {
		return
	}
	x, ok := e.descriptor()
	if !ok {
		// Descriptor pruned: only possible for memoized (stable-everywhere)
		// ops, which were applied when first done — reaching this means a
		// hostile interleaving or a bug. Skip the apply: the op's value (if
		// ever requested) falls back to the memoized/replay paths.
		r.fault(FaultApplyPruned, e.id, "commute apply of pruned op")
		return
	}
	r.curState, e.cur = r.dt.Apply(r.curState, x.Op)
	e.flags |= recCur
	r.metrics.AppliesForCurrentState++
}

// process runs the replica's internal actions to quiescence: deferred
// completions, do_it (Fig. 7), stability bookkeeping, memoization (§10.1),
// and responses. Called with the mutex held after every message; it
// returns the round's responses UNSENT — the caller unlocks, commits the
// round's journal records with one fsync (group commit), and only then
// ships them (deliverOutbox): a replica never acknowledges a request
// before its record is durable. While a §9.3 recovery is outstanding the
// replica only merges state; it neither labels new operations nor answers
// clients.
func (r *Replica) process() []responseOut {
	r.retryDeferred()
	if r.recovering {
		return nil
	}
	r.tryDoIt()
	r.advanceMemo()
	return r.respondPending()
}

// retryDeferred re-attempts done/stable processing for ids whose descriptor
// or label arrived after the gossip that declared them done.
func (r *Replica) retryDeferred() {
	if len(r.deferredQueue) == 0 {
		return
	}
	pending := r.deferredQueue
	r.deferredQueue = nil
	for _, e := range pending {
		e.flags &^= recDeferred
	}
	for _, e := range pending {
		if e.label.IsInf() {
			r.defer_(e)
			continue
		}
		r.markDoneLocal(e)
		if e.done == r.all {
			r.markStableLocal(e)
		}
		// If it was stable-deferred (label missing at stable time), redo the
		// maxStable update.
		if e.stableAt(r.id) && (r.maxStable.IsInf() || r.maxStable.Less(e.label)) {
			r.maxStable = e.label
		}
	}
}

// tryDoIt runs do_it_r(x, l) (Fig. 7) to fixpoint: every received,
// not-yet-done operation whose prev set is locally done gets a fresh label
// from ℒ_r greater than every label this replica has seen.
func (r *Replica) tryDoIt() {
	for {
		progress := false
		remaining := r.rcvdQueue[:0]
		for _, e := range r.rcvdQueue {
			if e.doneAt(r.id) {
				continue // became done via gossip
			}
			if !e.label.IsInf() {
				// Labelled by another replica: it is done elsewhere and will
				// join doneSeq via markDoneLocal, never via do_it.
				r.markDoneLocal(e)
				continue
			}
			x := e.x
			if !r.prevsDone(x) {
				remaining = append(remaining, e)
				continue
			}
			if r.storeFailed {
				// The stable store lost a write: no further labels may be
				// issued (they would not survive a crash). The operation
				// stays received; front-end retransmission routes it to a
				// healthy replica.
				remaining = append(remaining, e)
				continue
			}
			if r.gen.Exhausted() {
				// The label sequence space is used up — reachable remotely,
				// since a hostile peer can gossip (or snapshot) a
				// near-maximal label Seq. Fail soft like a store failure:
				// stop labeling, keep merging, let healthy replicas serve.
				r.fault(FaultLabelsExhausted, e.id, "label sequence space exhausted")
				remaining = append(remaining, e)
				continue
			}
			l := r.gen.Next()
			if r.store != nil {
				// §9.3 requires the label to survive a crash before it is
				// used; journaling the whole DESCRIPTOR with it (DESIGN.md
				// §10) additionally makes the acknowledgement durable — a
				// recovery replays the descriptor back into gossip, so an
				// answered-then-lost operation can no longer exist. The
				// record is buffered here; it becomes durable at the round's
				// group Commit, which every message carrying this label
				// waits on before leaving (see deliverOutbox).
				if err := r.store.PersistOp(x, l); err != nil {
					r.fault(FaultStoreFailed, e.id, "persisting op with label %v: %v", l, err)
					r.storeFailed = true
					remaining = append(remaining, e)
					continue
				}
			}
			e.setLabelMin(l)
			r.logChange(e, logL)
			r.addDone(e, x)
			r.metrics.DoItCount++
			if r.opt.Prune && e.has(recRetained) {
				// §10.2: the prev set is only needed by do_it; free it.
				e.x.Prev = nil
			}
			progress = true
		}
		// Preserve arrival order of the remaining undone ops; remaining
		// compacted rcvdQueue in place over its own backing array, so
		// adopting it directly avoids a copy per pass.
		r.rcvdQueue = remaining
		if !progress {
			return
		}
	}
}

// prevsDone reports whether every operation in x.prev is locally done —
// or subsumed by a locally done KeyInstall, whose state contains the
// referenced operation's effect and which every subsequent label sorts
// after (so the client's ordering constraint holds transitively).
func (r *Replica) prevsDone(x ops.Operation) bool {
	for _, p := range x.Prev {
		if e := r.ids.get(p); e == nil || !e.doneAt(r.id) && !e.has(recPrevSatisfied) {
			return false
		}
	}
	return true
}

// ensureSorted re-sorts the unsolid suffix of doneSeq by current labels.
// The memoized prefix is fixed (Lemma 10.2) and never re-sorted. It runs
// after every message, so after appends only it leaves the sorted run
// alone up to the first op above the smallest appended label, sorts the
// appended ops and merges the two runs. Labels are pre-fetched once into
// a reusable scratch buffer: this is the label-compare hot path.
//
// It returns the first index of doneSeq whose operation changed
// (len(doneSeq) when none did) and cuts the suffix cache there: every
// cached position below it still has the same operations before it.
func (r *Replica) ensureSorted() int {
	lo, inOrder := r.memoized, 0 // doneSeq[lo:lo+inOrder] is already in order
	if !r.seqDirty && r.sortedTo >= lo {
		if r.sortedTo == len(r.doneSeq) {
			return len(r.doneSeq)
		}
		min := r.ids.label(r.doneSeq[r.sortedTo])
		for _, id := range r.doneSeq[r.sortedTo+1:] {
			if l := r.ids.label(id); l.Less(min) {
				min = l
			}
		}
		run := r.doneSeq[lo:r.sortedTo]
		skip := sort.Search(len(run), func(i int) bool { return min.Less(r.ids.label(run[i])) })
		lo, inOrder = lo+skip, len(run)-skip
	}
	suffix := r.doneSeq[lo:]
	n := len(suffix)
	if cap(r.sortScratch) < 2*n {
		r.sortScratch = make([]labeledID, 2*n)
	}
	scratch := r.sortScratch[:n]
	for i, id := range suffix {
		scratch[i] = labeledID{id: id, l: r.ids.label(id)}
	}
	// Insertion sort of the rest: it is nearly sorted (labels only lower
	// via gossip, and new ops append with the highest label yet).
	for i := inOrder + 1; i < n; i++ {
		for j := i; j > inOrder && scratch[j].l.Less(scratch[j-1].l); j-- {
			scratch[j], scratch[j-1] = scratch[j-1], scratch[j]
		}
	}
	if inOrder > 0 {
		merged := r.sortScratch[n : 2*n]
		a, b := 0, inOrder
		for k := range merged {
			if b == n || (a < inOrder && scratch[a].l.Less(scratch[b].l)) {
				merged[k], a = scratch[a], a+1
			} else {
				merged[k], b = scratch[b], b+1
			}
		}
		scratch = merged
	}
	moved := len(r.doneSeq)
	for i := range scratch {
		if moved == len(r.doneSeq) && suffix[i] != scratch[i].id {
			moved = lo + i
		}
		suffix[i] = scratch[i].id
	}
	r.sortedTo = len(r.doneSeq)
	r.seqDirty = false
	r.cutSuffixCache(moved - r.memoized)
	return moved
}

// cutSuffixCache keeps the first k positions of the suffix cache (O(1)
// when it holds no more), releasing the states it drops.
func (r *Replica) cutSuffixCache(k int) {
	if k >= len(r.sufVals) {
		return
	}
	clear(r.sufStates[k:])
	clear(r.sufVals[k:])
	r.sufStates, r.sufVals = r.sufStates[:k], r.sufVals[:k]
}

// advanceMemo extends the memoized solid prefix (§10.1): operations whose
// label is ≤ the largest stable label are solid — their position in the
// eventual total order is fixed — so their value and the state after them
// are computed once and cached, or taken over from the suffix cache when a
// response already computed them.
//
// The prefix never advances while deferred completions are outstanding: a
// deferred id is an operation done somewhere whose label or descriptor this
// replica is missing, and it may belong below the stable frontier — exactly
// the situation after a crash when peers gossip done-ids whose descriptors
// §10.2 pruning discarded. Memoizing past it would fix a wrong prefix and
// make the incoming range answer uninstallable. Deferrals are transient in
// normal operation (a lost or reordered gossip frame), so the gate costs
// nothing outside recovery windows.
func (r *Replica) advanceMemo() {
	if !r.opt.Memoize || r.maxStable.IsInf() || len(r.deferredQueue) > 0 {
		return
	}
	r.ensureSorted()
	for r.memoized < len(r.doneSeq) {
		e := r.ids.get(r.doneSeq[r.memoized])
		l := e.label
		if !l.LessEq(r.maxStable) {
			break
		}
		if l.Less(r.lastMemoLabel) {
			// An operation sorted into the solid prefix: only hostile input
			// can produce this (solid positions are final). Stop advancing —
			// the prefix stays uncorrupted, unstable ops keep answering via
			// replay.
			r.fault(FaultMemoOrderViolation, e.id, "label %v below memoized frontier %v", l, r.lastMemoLabel)
			return
		}
		x, ok := e.descriptor()
		if !ok {
			r.fault(FaultMemoizePruned, e.id, "memoizing op with no retained descriptor")
			return
		}
		var v dtype.Value
		if len(r.sufVals) > 0 {
			// The suffix cache already holds this position's state and value,
			// computed from the same memoState: adopt them, and the rest of
			// the cache stays aligned with the new memoState.
			r.memoState, v = r.sufStates[0], r.sufVals[0]
			r.sufStates[0], r.sufVals[0] = nil, nil
			r.sufStates, r.sufVals = r.sufStates[1:], r.sufVals[1:]
		} else {
			r.memoState, v = r.dt.Apply(r.memoState, x.Op)
			r.metrics.AppliesForMemoize++
		}
		e.memo = v
		e.flags |= recMemo
		r.lastMemoLabel = l
		r.memoized++
		r.maybePrune(e)
	}
}

// maybePrune releases the descriptor of id under §10.2 once BOTH hold:
// the op is memoized (its value and state contribution are cached) and it
// is stable at this replica (done at every replica, so every peer already
// holds the descriptor and no future gossip R needs it). Pruning merely
// solid ops is unsound: a solid op's descriptor may not have reached every
// peer yet, and skipping it in gossip R would leave those peers with D/L
// entries they can never complete.
func (r *Replica) maybePrune(e *idRec) {
	if r.opt.Prune && e.has(recMemo) && e.stableAt(r.id) {
		r.unretain(e)
	}
}

// respondPending is send_rc(⟨"response", x, v⟩) of Fig. 7: every pending
// operation that is locally done — and, if strict, known stable at every
// replica — is answered and removed from pending. The responses are
// returned, not sent: acknowledgements may only leave after the round's
// journal records are durable (deliverOutbox).
func (r *Replica) respondPending() []responseOut {
	if len(r.pendingQueue) == 0 {
		return nil
	}
	remaining := r.pendingQueue[:0]
	var outbox []responseOut
	for _, e := range r.pendingQueue {
		if !e.doneAt(r.id) {
			remaining = append(remaining, e)
			continue
		}
		strict := r.isStrict(e)
		if strict && e.stable != r.all {
			remaining = append(remaining, e)
			continue
		}
		if strict && r.opt.Memoize && !e.has(recMemo) {
			// Stable everywhere but the solid prefix has not advanced past
			// it yet (only possible transiently); respond next round.
			remaining = append(remaining, e)
			continue
		}
		v, err := r.valueFor(e, strict)
		e.flags &^= recPending
		if err != nil {
			// The value is uncomputable (fault recorded by valueFor). Drop
			// the op from pending rather than retrying on every message: a
			// front-end retransmission re-adds it (so a transient fault —
			// e.g. a snapshot still in flight — heals at the retransmit
			// cadence), and a permanent one neither burns the replay path
			// nor floods the fault counter per message.
			continue
		}
		r.metrics.ResponsesSent++
		outbox = append(outbox, responseOut{to: FrontEndNodeIn(r.shard, e.id.Client), msg: ResponseMsg{ID: e.id, Value: v}})
	}
	// remaining compacted pendingQueue in place over its own backing array;
	// adopting it directly avoids re-copying the queue on every message.
	r.pendingQueue = remaining
	return outbox
}

// responseOut is one response awaiting send, with its destination.
type responseOut struct {
	to  transport.NodeID
	msg ResponseMsg
}

// commitStore makes every record journaled so far durable — ONE Commit
// (one fsync on a FileStableStore) covering a whole admission round, the
// group commit of DESIGN.md §10. Called WITHOUT the mutex, so the next
// round can admit and journal while this round's fsync is in flight; the
// store's committer coalesces the overlapping commits. A false return
// means durability failed: the caller must withhold every label-carrying
// message of the round (front ends retransmit, and healthy replicas take
// over the labeling — storeFailed is latched exactly as for a failed
// append).
func (r *Replica) commitStore() bool {
	if r.store == nil {
		return true
	}
	if err := r.store.Commit(); err != nil {
		r.mu.Lock()
		r.fault(FaultStoreFailed, ops.ID{}, "committing journal: %v", err)
		r.storeFailed = true
		r.mu.Unlock()
		return false
	}
	return true
}

// deliverOutbox ships one round's responses after committing the round's
// journal records — the ack-after-durable ordering: an acknowledgement
// reaches the wire only once the operation it answers (descriptor and
// label) is on stable storage. Called without the mutex.
func (r *Replica) deliverOutbox(outbox []responseOut) {
	if len(outbox) == 0 {
		return
	}
	if !r.commitStore() {
		return
	}
	if r.opt.BatchSize > 1 && len(outbox) > 1 {
		r.sendResponsesBatched(outbox)
		return
	}
	for _, o := range outbox {
		r.net.Send(r.node, o.to, o.msg)
	}
}

// sendResponsesBatched groups one process pass's responses by destination
// front end and sends each group as a BatchResponseMsg (chunked at
// BatchSize; a group of one stays a plain ResponseMsg), preserving
// per-destination order — the response side of the batched hot path.
// Called without the mutex (r.opt and r.node are immutable; the metrics
// touch re-locks).
func (r *Replica) sendResponsesBatched(outbox []responseOut) {
	grouped := make(map[transport.NodeID][]ResponseMsg)
	var order []transport.NodeID
	for _, o := range outbox {
		if len(grouped[o.to]) == 0 {
			order = append(order, o.to)
		}
		grouped[o.to] = append(grouped[o.to], o.msg)
	}
	var batches uint64
	for _, to := range order {
		resps := grouped[to]
		for len(resps) > 0 {
			n := len(resps)
			if n > r.opt.BatchSize {
				n = r.opt.BatchSize
			}
			if n == 1 {
				r.net.Send(r.node, to, resps[0])
			} else {
				batches++
				r.net.Send(r.node, to, BatchResponseMsg{Resps: resps[:n:n]})
			}
			resps = resps[n:]
		}
	}
	if batches > 0 {
		r.mu.Lock()
		r.metrics.ResponseBatchesSent += batches
		r.mu.Unlock()
	}
}

// isStrict reports the strict flag of a done operation. For pruned
// descriptors the flag survives as recStrictGhost when the op arrived via a
// snapshot; otherwise pruning only affects memoized-stable ops, whose
// strictness no longer matters for ordering — a pruned pending op must have
// been answered already, so the fallback is non-strict.
func (r *Replica) isStrict(e *idRec) bool {
	if x, ok := e.descriptor(); ok {
		return x.Strict
	}
	return e.has(recStrictGhost)
}

// valueFor computes the response value for a locally done operation: its
// value in the local total order lc_r (Invariant 7.16 makes this the unique
// element of valset(x, done_r[r], lc_r)).
//
// Fast paths: commute mode answers non-strict ops from the value recorded
// when the op was applied to cs_r (Fig. 11, Lemma 10.6); memoized (or
// snapshot-seeded) solid ops answer from the cached prefix (Fig. 10) — the
// recMemo check is unconditional because snapshot installation seeds
// values even when Memoize is off, and a seeded op has no descriptor to
// replay. Anything else is replayed from memoState along the unsolid
// suffix; under Memoize the replay extends the suffix cache, so it starts
// where the cache ends and stops at the op asked for. Uncomputable values
// (hostile interleavings) return an error with the fault recorded.
func (r *Replica) valueFor(e *idRec, strict bool) (dtype.Value, error) {
	if r.opt.Commute && !strict && e.has(recCur) {
		return e.cur, nil
	}
	if e.has(recMemo) {
		return e.memo, nil
	}
	id := e.id
	r.ensureSorted()
	suffix := r.doneSeq[r.memoized:]
	pos := slices.Index(suffix, id)
	if pos < 0 {
		r.fault(FaultValueNotDone, id, "op not in local total order")
		return nil, &ReplicaFault{Replica: r.id, Code: FaultValueNotDone, ID: id}
	}
	st, k := r.memoState, 0 // initial state when nothing is memoized
	if r.opt.Memoize {
		if k = len(r.sufVals); pos < k {
			return r.sufVals[pos], nil
		}
		if k > 0 {
			st = r.sufStates[k-1]
		}
	}
	var v dtype.Value
	for ; k <= pos; k++ {
		x, ok := r.ids.get(suffix[k]).descriptor()
		if !ok {
			r.fault(FaultValuePruned, id, "replay needs pruned unsolid op %v", suffix[k])
			return nil, &ReplicaFault{Replica: r.id, Code: FaultValuePruned, ID: id}
		}
		st, v = r.dt.Apply(st, x.Op)
		r.metrics.AppliesForResponse++
		if r.opt.Memoize {
			r.sufStates = append(r.sufStates, st)
			r.sufVals = append(r.sufVals, v)
		}
	}
	return v, nil
}

// DebugSnapshot exposes a consistent view of the replica's key state for
// tests and trace checkers.
type DebugSnapshot struct {
	Done      []ops.ID               // done_r[r] in local label order
	Stable    []ops.ID               // stable_r[r] in local label order
	Labels    map[ops.ID]label.Label // label_r (proper entries)
	Memoized  int
	Pending   int
	Deferred  int
	MaxStable label.Label
}

// Snapshot returns a DebugSnapshot.
func (r *Replica) Snapshot() DebugSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureSorted()
	return DebugSnapshot{
		Done:      append([]ops.ID(nil), r.doneSeq...),
		Stable:    r.stableInOrder(),
		Labels:    r.labelSnapshot(),
		Memoized:  r.memoized,
		Pending:   len(r.pendingQueue),
		Deferred:  len(r.deferredQueue),
		MaxStable: r.maxStable,
	}
}

// FullGossipSize is the EstimateSize of the full-state frame Fig. 7's
// gossip as written would send one peer now (buildFullGossip): the
// baseline the §10.4 ablation prices delta gossip against, measured in
// the same run.
func (r *Replica) FullGossipSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return EstimateSize(r.buildFullGossip())
}

// StableEverywhereCount returns |{x : x ∈ ∩_i stable_r[i]}| — the ops this
// replica knows are stable at every replica (the strict-response guard).
func (r *Replica) StableEverywhereCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	count := 0
	for _, e := range r.ids.m {
		if e.stable == r.all {
			count++
		}
	}
	return count
}

// FrontEndNode is the transport address convention for front ends: the
// replica derives the response destination from client(x.id), exactly as
// the paper's send_rc uses c = client(x.id).
func FrontEndNode(client string) transport.NodeID {
	return FrontEndNodeIn(0, client)
}

// FrontEndNodeIn is the shard-qualified form of FrontEndNode: every
// keyspace shard owns an independent transport namespace, so the same
// client name can hold a front end per shard on one shared network. Shard
// 0 keeps the legacy unqualified names (an unsharded cluster IS shard 0).
func FrontEndNodeIn(shard int, client string) transport.NodeID {
	if shard == 0 {
		return transport.NodeID("fe:" + client)
	}
	return transport.NodeID(fmt.Sprintf("s%d/fe:%s", shard, client))
}

// ReplicaNode is the transport address convention for replicas.
func ReplicaNode(id label.ReplicaID) transport.NodeID {
	return ReplicaNodeIn(0, id)
}

// ReplicaNodeIn is the shard-qualified form of ReplicaNode.
func ReplicaNodeIn(shard int, id label.ReplicaID) transport.NodeID {
	if shard == 0 {
		return transport.NodeID(fmt.Sprintf("replica:%d", id))
	}
	return transport.NodeID(fmt.Sprintf("s%d/replica:%d", shard, id))
}
