package core

import "esds/internal/label"

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

// Crash simulates a crash with volatile memory loss: every state component
// except the replica's identity, configuration, and stable store is reset
// to its initial value. The caller is responsible for also making the
// replica unreachable during the outage (e.g. SimNet.SetNodeDown) — Crash
// itself only wipes memory.
func (r *Replica) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids = newIDTable() // this replica's own labels are reloaded by Recover
	r.doneLocal, r.stableLocal, r.retainedN = 0, 0, 0
	r.pendingQueue = nil
	r.rcvdQueue = nil
	r.gen = label.NewGenerator(r.id)
	r.doneSeq = nil
	r.sortedTo = 0
	r.seqDirty = false
	r.deferredQueue = nil
	r.memoized = 0
	r.memoState = r.dt.Initial()
	r.sufStates, r.sufVals = nil, nil
	r.lastMemoLabel = label.Label{}
	r.maxStable = label.Infinity
	r.curState = r.dt.Initial()
	// A new incarnation: its change log begins where the last one ended,
	// so an acknowledgement meant for the old log changes nothing.
	r.startLog(r.logNext())
	r.resizes = nil // re-learned from the store and the range answers' Done chunks
	r.recoveryParked = nil
	r.storeFailed = false // re-latches on the next failed write
	r.crashed = true
	r.recovering = false
	r.recoveryAcks = nil
	// Abandon any open range round (rangeSeq survives, so a chunk addressed
	// to a pre-crash round can never match a post-crash nonce).
	r.rangeNonce = 0
	r.rangeBuf, r.rangeDone = nil, nil
	r.rangeTries = 0
}

// reloadStoreLocked replays the stable store into a freshly crashed
// replica — the first half of Recover. Persisted labels are observed (so
// every future label sorts above them) and entered into label_r, so every
// operation keeps a label ≤ its pre-crash one, the §9.3 condition, even
// when every peer that learned the label crashed too. The change log
// carries them ahead of anything the replica reports done after the
// crash, and peers merge a sender's log in order, so no peer can find an
// operation stable above such a label before it knows the label.
// Descriptors are replayed into rcvd_r in journal order, and resize
// records and key-index entries are reinstalled. Clears the crashed flag.
// Mutex held.
func (r *Replica) reloadStoreLocked() {
	if r.store != nil {
		for id, l := range r.store.Labels() {
			r.setLabelMin(r.ids.rec(id), l)
		}
	}
	r.crashed = false
	if r.store != nil {
		// Replay the durable descriptors in journal order (prev-respecting:
		// do_it labeled them in that order). Each goes through receiveOp —
		// NOT pending (the front end retransmits anything unanswered) — so
		// the next process() pass makes it done again at its reloaded label
		// and gossips it. Duplicates against the peers' answers dedup via
		// the identifier table as usual.
		for _, x := range r.store.Ops() {
			r.receiveOp(x)
		}
		r.installResizeRecords(r.store.Resizes())
		for id, key := range r.store.Keys() {
			if e := r.ids.rec(id); !e.has(recKeyed) {
				e.key = key
				e.flags |= recKeyed
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
