package core

import (
	"sort"
	"sync"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// This file implements the §9.3 crash-recovery protocol for replicas with
// volatile memory:
//
//	"A replica recovers by requesting new gossip messages and waiting for
//	 a response from each replica before resuming the algorithm. The key
//	 to establishing correctness is that after recovery, the replica
//	 should have a label for each operation that is less than or equal to
//	 the label it had for that operation before the crash. This is only a
//	 problem if the smallest label it had prior to the crash was generated
//	 locally, so only those labels need to be kept in stable storage."
//
// A replica configured with a StableStore persists the labels it generates
// itself (its ℒ_r assignments) — the paper's minimum — and, beyond the
// paper, the operation DESCRIPTORS it labels, its resize records, and the
// prune-surviving key index (DESIGN.md §10): descriptors make acknowledged
// operations durable (the answered-then-lost gap), and the resize records
// let a single-replica shard re-learn its freeze obligations without a
// peer. Crash wipes all volatile state; Recover reloads the persisted
// labels, replays the persisted descriptors back into rcvd_r, fetches every
// peer's state through range rounds (range.go — §10.2 pruning forces the
// paper's "new gossip" to carry state, not descriptors), and suspends
// do_it / responses / outgoing gossip until every peer has answered.

// StableStore is the replica's only non-volatile state: the write-ahead
// journal of everything §9.3 recovery needs. Implementations must retain
// writes made before a crash.
//
// The Persist* methods journal records; they may buffer — a record is
// guaranteed durable only once a later Commit returns nil. The replica
// groups the records of one admission round and issues one Commit before
// any message built from them leaves (the group-commit, ack-after-durable
// write path of DESIGN.md §10): responses, gossip, and recovery answers
// all wait on the round's Commit, so no label or acknowledgement is ever
// externalized on the strength of a record a crash could lose.
type StableStore interface {
	// PersistLabel records that the replica assigned l to id. A non-nil
	// error means the label is NOT durable; the replica then refuses to use
	// it (and stops labeling new operations): §9.3's safety rests on every
	// locally generated label surviving a crash, and a label used but lost
	// could be re-issued to a different operation after recovery, splitting
	// the total order.
	PersistLabel(id ops.ID, l label.Label) error
	// PersistOp journals the full operation descriptor together with the
	// label the replica assigned it — the do_it write path. Persisting the
	// descriptor (not just the label) is what lets recovery re-introduce an
	// answered-then-lost operation into gossip: without it, a replica that
	// acknowledged a non-strict operation and crashed before gossiping it
	// lost the operation forever (the former DESIGN.md §6 gap).
	PersistOp(x ops.Operation, l label.Label) error
	// PersistResize journals one resize epoch's freeze/migration record so
	// a crashed single-replica shard re-learns its obligations without a
	// peer. Later records for the same epoch supersede earlier ones.
	PersistResize(rec ResizeRecord) error
	// PersistKey journals one entry of the prune-surviving key index
	// (keyOf), which ExportKeyState needs even after descriptors are gone.
	PersistKey(id ops.ID, key string) error
	// Commit makes every record journaled so far durable. A non-nil error
	// means durability is unknown-at-best; the replica withholds the
	// messages of the round and latches storeFailed.
	Commit() error
	// Labels returns all persisted label assignments (from PersistLabel and
	// PersistOp records alike).
	Labels() map[ops.ID]label.Label
	// Ops returns all persisted operation descriptors in journal order —
	// the order they were labeled, which respects prev constraints.
	Ops() []ops.Operation
	// Resizes returns the latest persisted record of every resize epoch.
	Resizes() []ResizeRecord
	// Keys returns the persisted key index.
	Keys() map[ops.ID]string
}

// MemStableStore is an in-memory StableStore that lives outside the replica
// (so it survives Replica.Crash). It is safe for concurrent use.
type MemStableStore struct {
	mu      sync.Mutex
	m       map[ops.ID]label.Label
	ops     []ops.Operation
	opIdx   map[ops.ID]int
	resizes map[int]ResizeRecord
	keys    map[ops.ID]string
}

var _ StableStore = (*MemStableStore)(nil)

// NewMemStableStore returns an empty store.
func NewMemStableStore() *MemStableStore {
	return &MemStableStore{
		m:       make(map[ops.ID]label.Label),
		opIdx:   make(map[ops.ID]int),
		resizes: make(map[int]ResizeRecord),
		keys:    make(map[ops.ID]string),
	}
}

// PersistLabel implements StableStore; memory writes cannot fail.
func (s *MemStableStore) PersistLabel(id ops.ID, l label.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[id] = l
	return nil
}

// PersistOp implements StableStore. Re-persisting an operation (a recovery
// replay re-labeling it with its held label) overwrites in place.
func (s *MemStableStore) PersistOp(x ops.Operation, l label.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[x.ID] = l
	if i, ok := s.opIdx[x.ID]; ok {
		s.ops[i] = x
	} else {
		s.opIdx[x.ID] = len(s.ops)
		s.ops = append(s.ops, x)
	}
	return nil
}

// PersistResize implements StableStore: the latest record per epoch wins
// (records only grow — more migrated keys, then Complete).
func (s *MemStableStore) PersistResize(rec ResizeRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resizes[rec.Epoch] = rec
	return nil
}

// PersistKey implements StableStore.
func (s *MemStableStore) PersistKey(id ops.ID, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[id] = key
	return nil
}

// Commit implements StableStore; memory records are durable on write.
func (s *MemStableStore) Commit() error { return nil }

// Labels implements StableStore.
func (s *MemStableStore) Labels() map[ops.ID]label.Label {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ops.ID]label.Label, len(s.m))
	for id, l := range s.m {
		out[id] = l
	}
	return out
}

// Ops implements StableStore.
func (s *MemStableStore) Ops() []ops.Operation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ops.Operation(nil), s.ops...)
}

// Resizes implements StableStore.
func (s *MemStableStore) Resizes() []ResizeRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ResizeRecord, 0, len(s.resizes))
	for _, rec := range s.resizes {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// Keys implements StableStore.
func (s *MemStableStore) Keys() map[ops.ID]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ops.ID]string, len(s.keys))
	for id, k := range s.keys {
		out[id] = k
	}
	return out
}

// Crash simulates a crash with volatile memory loss: every state component
// except the replica's identity, configuration, and stable store is reset
// to its initial value. The caller is responsible for also making the
// replica unreachable during the outage (e.g. SimNet.SetNodeDown) — Crash
// itself only wipes memory.
func (r *Replica) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	r.pendingQueue = nil
	r.pendingSet = make(map[ops.ID]struct{})
	r.retained = make(map[ops.ID]ops.Operation)
	r.rcvdIDs = make(map[ops.ID]struct{})
	r.rcvdQueue = nil
	r.doneAt = make([]map[ops.ID]struct{}, n)
	r.stableAt = make([]map[ops.ID]struct{}, n)
	for i := 0; i < n; i++ {
		r.doneAt[i] = make(map[ops.ID]struct{})
		r.stableAt[i] = make(map[ops.ID]struct{})
	}
	r.doneCount = make(map[ops.ID]int)
	r.stableCount = make(map[ops.ID]int)
	r.labels = label.NewMap()
	r.gen = label.NewGenerator(r.id)
	r.doneSeq = nil
	r.sortedTo = 0
	r.seqDirty = false
	r.deferredQueue = nil
	r.deferredSet = make(map[ops.ID]struct{})
	r.memoized = 0
	r.memoState = r.dt.Initial()
	r.memoVals = make(map[ops.ID]dtype.Value)
	r.sufStates, r.sufVals = nil, nil
	r.lastMemoLabel = label.Label{}
	r.maxStable = label.Infinity
	r.curState = r.dt.Initial()
	r.curVals = make(map[ops.ID]dtype.Value)
	for i := 0; i < n; i++ {
		r.pendR[i] = nil
		r.pendD[i] = nil
		r.pendS[i] = nil
		r.pendL[i] = make(map[ops.ID]struct{})
	}
	r.strictGhost = make(map[ops.ID]struct{})
	r.resizes = nil // re-learned from the store and the range answers' Done chunks
	r.recoveryParked = nil
	r.keyOf = make(map[ops.ID]string)
	r.prevSatisfied = make(map[ops.ID]struct{})
	r.storeFailed = false // re-latches on the next failed write
	r.storeHeld = nil     // rebuilt by Recover from the store
	r.crashed = true
	r.recovering = false
	r.recoveryAcks = nil
	// Abandon any open range round (rangeSeq survives, so a chunk addressed
	// to a pre-crash round can never match a post-crash nonce).
	r.rangeNonce = 0
	r.rangeBuf = nil
	r.rangeTries = 0
}

// reloadStoreLocked replays the stable store into a freshly crashed
// replica — the first half of Recover. Persisted labels are observed (so
// every future label sorts above them, §9.3) and held aside for reuse,
// descriptors are replayed into rcvd_r in journal order, and resize records
// and key-index entries are reinstalled. Clears the crashed flag. Mutex
// held.
func (r *Replica) reloadStoreLocked() {
	if r.store != nil {
		for id, l := range r.store.Labels() {
			// Freshness is unconditional: labels issued after recovery must
			// sort above everything issued before the crash. The label
			// ASSIGNMENT is not re-entered into the label map — if it ever
			// escaped, the peers' answers restore it; if not, it is held
			// aside for §9.3 reuse when the front end retransmits the op
			// (see Replica.storeHeld).
			r.gen.Observe(l)
			if _, done := r.doneAt[r.id][id]; !done {
				if r.storeHeld == nil {
					r.storeHeld = make(map[ops.ID]label.Label)
				}
				r.storeHeld[id] = l
			}
		}
	}
	r.crashed = false
	if r.store != nil {
		// Replay the durable descriptors in journal order (prev-respecting:
		// do_it labeled them in that order). Each goes through receiveOp —
		// NOT pending (the front end retransmits anything unanswered) — so
		// the next process() pass re-labels it with its held label and
		// re-enters it into gossip. Duplicates against the peers' answers
		// dedup via rcvdIDs/doneAt as usual.
		for _, x := range r.store.Ops() {
			r.receiveOp(x)
		}
		r.installResizeRecords(r.store.Resizes())
		for id, key := range r.store.Keys() {
			if _, ok := r.keyOf[id]; !ok {
				r.keyOf[id] = key
			}
		}
	}
}

// Recover restarts a crashed replica: persisted labels are reloaded (so
// every re-learned operation gets a label ≤ its pre-crash label, the §9.3
// correctness condition), persisted descriptors are replayed into rcvd_r
// (so an operation this replica acknowledged and never gossiped re-enters
// the algorithm — and, once re-labeled, gossip — instead of being lost),
// persisted resize records and key-index entries are reinstalled, and range
// rounds are opened against the peers, one at a time (range.go). The
// replica resumes the algorithm only after a Done chunk from every peer has
// installed; keyed requests are parked until then (the resize obligations
// arrive with the Done chunks). A single-replica cluster resumes
// immediately on its store alone.
func (r *Replica) Recover() {
	r.mu.Lock()
	r.reloadStoreLocked()
	r.recovering = r.n > 1
	if !r.recovering {
		r.mu.Unlock()
		return
	}
	r.recoveryAcks = make(map[label.ReplicaID]struct{})
	to, req := r.openRangeRoundLocked()
	r.mu.Unlock()
	r.net.Send(r.node, to, req)
}

// Recovering reports whether the replica is still owed a recovery answer.
func (r *Replica) Recovering() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovering
}
