package core

import (
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// MaxReplicas bounds the replicas of one cluster (or of one keyspace
// shard): an identifier's memberships in done_r[i] and stable_r[i] are the
// bits of one uint64.
const MaxReplicas = 64

// idRec is everything a replica holds about one operation identifier. Fig. 7
// keeps this as membership in the sets rcvd_r, pending_r, done_r[i] and
// stable_r[i] plus the entry label_r(id); here each set is a bit or a field
// of one record, so a merge step costs one table lookup per identifier.
// Records live until Crash.
type idRec struct {
	id ops.ID
	x  ops.Operation // the descriptor while recRetained; §10.2 pruning clears it

	// label is label_r(id), label.Infinity until one is known.
	label label.Label

	memo dtype.Value // the memoized value (§10.1), while recMemo
	cur  dtype.Value // the value at its commute-mode apply (§10.3), while recCur

	// key is the object of a keyed operation (recKeyed). It survives
	// pruning, like recRcvd, so a resize exporter can enumerate a key's
	// full source-era history after descriptors are gone.
	key string

	done   uint64 // bit i: id ∈ done_r[i]
	stable uint64 // bit i: id ∈ stable_r[i]
	flags  recFlag
}

// recFlag is the set of one-bit facts an idRec holds.
type recFlag uint16

const (
	recRcvd     recFlag = 1 << iota // id ∈ rcvd_r, descriptor pruned or not
	recRetained                     // x holds the descriptor
	recPending                      // id ∈ pending_r
	recDeferred                     // waiting in the deferred queue
	recMemo                         // memo is set
	recCur                          // cur is set
	recKeyed                        // key is set
	// recStrictGhost keeps the strict flag of a snapshot-seeded operation
	// whose descriptor was pruned everywhere, so a retransmitted request
	// for it still honours the strict response discipline.
	recStrictGhost
	// recPrevSatisfied marks an identifier subsumed by a locally done
	// KeyInstall: prev constraints on it are satisfied by construction (the
	// install contains its effects and is ordered first).
	recPrevSatisfied
	recSnap // transient: covered by the snapshot installSnapshot is adopting
)

// idTable maps identifiers to their records. Records are carved out of
// chunks, so creating one allocates once per chunk rather than once per
// identifier, and a record never moves: queues hold *idRec.
type idTable struct {
	m    map[ops.ID]*idRec
	free []idRec // the unused tail of the newest chunk
}

// maxRecChunk caps the records allocated at once; chunks grow with the
// table up to it, so a small replica stays small.
const maxRecChunk = 512

func newIDTable() idTable { return idTable{m: make(map[ops.ID]*idRec)} }

// get returns id's record, nil when there is none.
func (t *idTable) get(id ops.ID) *idRec { return t.m[id] }

// rec returns id's record, creating an empty one (label ∞, no flags).
func (t *idTable) rec(id ops.ID) *idRec {
	if e := t.m[id]; e != nil {
		return e
	}
	if len(t.free) == 0 {
		t.free = make([]idRec, min(len(t.m)+16, maxRecChunk))
	}
	e := &t.free[0]
	t.free = t.free[1:]
	e.id, e.label = id, label.Infinity
	t.m[id] = e
	return e
}

// label returns label_r(id), ∞ when unknown.
func (t *idTable) label(id ops.ID) label.Label {
	if e := t.m[id]; e != nil {
		return e.label
	}
	return label.Infinity
}

// setLabelMin lowers the record's label to min(label, l) — the merge rule
// label_r ← min(label_r, L) — and reports whether it changed.
func (e *idRec) setLabelMin(l label.Label) bool {
	if !l.Less(e.label) {
		return false
	}
	e.label = l
	return true
}

func (e *idRec) doneAt(i label.ReplicaID) bool   { return e.done&(1<<i) != 0 }
func (e *idRec) stableAt(i label.ReplicaID) bool { return e.stable&(1<<i) != 0 }
func (e *idRec) has(f recFlag) bool              { return e.flags&f != 0 }

// descriptor returns the retained descriptor, ok=false once pruned (or
// before it arrived).
func (e *idRec) descriptor() (ops.Operation, bool) {
	return e.x, e.has(recRetained)
}
