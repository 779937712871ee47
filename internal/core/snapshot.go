package core

import (
	"cmp"
	"slices"
	"strings"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// This file is the install half of state transfer (range.go is the wire
// half): validating a peer's memoized solid prefix and adopting it without
// descriptors, which is what makes §10.2 pruning composable with crash
// recovery. Correctness rests on the solid-prefix invariants the
// memoization optimization already maintains:
//
//   - The memoized prefix is a prefix of the eventual total order and its
//     labels are final (Lemma 10.2), so two replicas' prefixes never
//     conflict — one is a prefix of the other. Installation is therefore
//     idempotent and merge-monotone: an answer no longer than the local
//     prefix is ignored, a longer one extends it.
//   - Every operation outside the sender's memoized prefix has a final
//     label above the sender's memoized frontier, so locally known
//     operations not covered by the snapshot always sort after it; the
//     receiver keeps them as the unsolid suffix.
//   - The §9.3 label condition (post-recovery label ≤ pre-crash label)
//     holds because snapshot labels ARE the final minima, and the snapshot
//     watermark plus per-op labels are Observed by the generator before any
//     new label is issued.
//
// Installation seeds rcvd/done/stable/label state, the memoized prefix
// (state, values, frontier), and — in commute mode — rebuilds the current
// state, all without descriptors. Descriptors still retained anywhere
// continue to travel in gossip R exactly as before; the prefix only has to
// stand in for the ones pruning has made unrecoverable.

// prefixSnapshot is a whole memoized solid prefix in final label order, the
// serial state after it in the data type's canonical encoding
// (dtype.Snapshotter), and the sender's label watermark: what the range
// client assembles from its own prefix plus the fetched chunks and hands to
// installSnapshot. It never crosses the wire in one piece.
type prefixSnapshot struct {
	From      label.ReplicaID
	DataType  string // DataType.Name() of the sender; must match the receiver
	Ops       []SnapOp
	State     []byte // canonical encoding of the state after Ops
	Watermark uint64 // highest label Seq the sender has observed (§9.3 freshness)
}

// buildPrefixSnapOps assembles the SnapOp entries for doneSeq[lo:hi], a
// slice of the memoized solid prefix (hi ≤ r.memoized): the range server's
// chunker — and, on the range CLIENT, what reconstructs its own
// already-held prefix when splicing fetched chunks into a full snapshot.
// Mutex held.
func (r *Replica) buildPrefixSnapOps(lo, hi int) []SnapOp {
	out := make([]SnapOp, 0, hi-lo)
	for i := lo; i < hi; i++ {
		e := r.ids.get(r.doneSeq[i])
		out = append(out, SnapOp{
			ID:     e.id,
			Label:  e.label,
			Value:  e.memo,
			Stable: e.stableAt(r.id),
			Strict: r.isStrict(e),
			Key:    e.key,
		})
	}
	return out
}

// installSnapshot validates a snapshot strictly longer than the locally
// memoized prefix (the caller's precondition), merges it into the replica
// state, and reports whether it was installed. Mutex held.
func (r *Replica) installSnapshot(msg prefixSnapshot) bool {
	from := int(msg.From)

	if msg.DataType != r.dt.Name() {
		r.fault(FaultBadSnapshot, ops.ID{}, "data type %q, local %q", msg.DataType, r.dt.Name())
		return false
	}
	sn, ok := r.dt.(dtype.Snapshotter)
	if !ok {
		r.fault(FaultBadSnapshot, ops.ID{}, "local data type %q has no snapshot decoding", r.dt.Name())
		return false
	}
	// Labels must be proper and strictly ascending (the prefix is in final
	// label order), ids unique, and the shared prefix must match what this
	// replica has already memoized — ids AND labels, since solid labels are
	// final: a snapshot that "re-labels" the solid prefix is exactly the
	// corruption setLabelMin refuses when it arrives as gossip.
	prev := label.Label{}
	for i, so := range msg.Ops {
		if so.Label.IsInf() {
			r.fault(FaultBadSnapshot, so.ID, "snapshot op %d has no label", i)
			return false
		}
		if i > 0 && !prev.Less(so.Label) {
			r.fault(FaultBadSnapshot, so.ID, "snapshot labels not ascending at %d (%v after %v)", i, so.Label, prev)
			return false
		}
		prev = so.Label
		if i < r.memoized {
			if r.doneSeq[i] != so.ID {
				r.fault(FaultBadSnapshot, so.ID, "snapshot prefix diverges at %d: local %v", i, r.doneSeq[i])
				return false
			}
			if got := r.ids.label(so.ID); got != so.Label {
				r.fault(FaultBadSnapshot, so.ID, "snapshot label %v differs from solid label %v", so.Label, got)
				return false
			}
		}
	}
	if id, dup := repeatedID(msg.Ops); dup {
		r.fault(FaultBadSnapshot, id, "snapshot repeats op")
		return false
	}
	state, err := sn.DecodeState(msg.State)
	if err != nil {
		r.fault(FaultBadSnapshot, ops.ID{}, "decoding state: %v", err)
		return false
	}

	// Labels and freshness first: every subsequent mark can rely on proper
	// labels, and every label this replica generates from now on sorts
	// above everything the sender had seen (§9.3).
	r.gen.ObserveSeq(msg.Watermark)
	recs := make([]*idRec, len(msg.Ops))
	for i, so := range msg.Ops {
		r.gen.Observe(so.Label)
		recs[i] = r.ids.rec(so.ID)
		recs[i].setLabelMin(so.Label)
		recs[i].flags |= recSnap
	}

	// Rebuild the local total order: the snapshot prefix, then every
	// locally done operation not covered by it (their labels are above the
	// snapshot frontier by the solid-prefix invariant).
	newSeq := make([]ops.ID, 0, len(msg.Ops)+len(r.doneSeq))
	for _, so := range msg.Ops {
		newSeq = append(newSeq, so.ID)
	}
	var suffix []*idRec
	for _, id := range r.doneSeq {
		if e := r.ids.get(id); !e.has(recSnap) {
			suffix = append(suffix, e)
			newSeq = append(newSeq, id)
		}
	}

	// Per-operation marks: received, locally done, done/stable at peers.
	// Stable snapshot ops get the full gossip-S treatment (stable at the
	// sender ⇒ done at every replica); unstable ones only what the sender
	// itself vouches for.
	for i, so := range msg.Ops {
		e := recs[i]
		e.flags = e.flags&^recSnap | recRcvd
		if so.Key != "" {
			// Reseed the prune-surviving key index alongside rcvd_r: both
			// must survive recovery for resize exports to stay complete.
			e.key = so.Key
			e.flags |= recKeyed
		}
		if so.Strict && !e.has(recRetained) {
			e.flags |= recStrictGhost
		}
		// Never overwrite a value this replica already holds: memoized
		// values are final, and honest senders agree on them anyway.
		if !e.has(recMemo) {
			e.memo = so.Value
			e.flags |= recMemo
		}
		if !e.doneAt(r.id) {
			r.setDoneLocal(e)
			r.logChange(e, logL)
			r.metrics.SnapshotOpsSeeded++
		}
		if so.Stable {
			r.markDoneEverywhere(e)
			r.markStableAt(from, e)
			r.markStableLocal(e)
		} else {
			r.markDoneAt(from, e)
		}
		if e.done == r.all {
			r.markStableLocal(e)
		}
	}

	// Adopt the prefix: order, state, values, frontier.
	r.doneSeq = newSeq
	r.memoized = len(msg.Ops)
	r.seqDirty = true // the suffix may need re-sorting against new labels
	r.memoState = state
	r.sufStates, r.sufVals = nil, nil // replayed from the old memoState
	r.lastMemoLabel = msg.Ops[len(msg.Ops)-1].Label

	// Commute mode: cs_r is the state after all locally done operations;
	// rebuild it as snapshot state + the unsolid suffix (whose descriptors
	// are retained — only solid operations are ever pruned). Values already
	// recorded at first apply are kept; snapshot ops answer from their
	// memoized values.
	if r.opt.Commute {
		st := state
		for _, e := range suffix {
			x, retained := e.descriptor()
			if !retained {
				r.fault(FaultApplyPruned, e.id, "rebuilding current state after snapshot")
				continue
			}
			var v dtype.Value
			st, v = r.dt.Apply(st, x.Op)
			r.metrics.AppliesForCurrentState++
			if !e.has(recCur) {
				e.cur = v
				e.flags |= recCur
			}
		}
		r.curState = st
		for i, so := range msg.Ops {
			if e := recs[i]; !e.has(recCur) {
				e.cur = so.Value
				e.flags |= recCur
			}
		}
	}
	return true
}

// repeatedID returns an identifier that occurs more than once in sos.
func repeatedID(sos []SnapOp) (ops.ID, bool) {
	ids := make([]ops.ID, len(sos))
	for i, so := range sos {
		ids[i] = so.ID
	}
	slices.SortFunc(ids, func(a, b ops.ID) int {
		return cmp.Or(strings.Compare(a.Client, b.Client), cmp.Compare(a.Seq, b.Seq))
	})
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
	}
	return ops.ID{}, false
}
