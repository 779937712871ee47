package core

import (
	"iter"

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
	// recStrictLive marks a strict operation received here and not yet
	// stable at every replica: one of the Replica.strictLive it counts.
	recStrictLive
)

// idTable maps identifiers to their records, one stream per client: a
// client issues its identifiers in sequence (the per-client summaries of
// lazy replication, Ladin et al., TOCS 1992), so a stream finds a sequence
// number's 64-slot page by seq>>6 and the slot by its low bits. The same
// pages hold dense, strided and lone sequence numbers alike. A slot is a
// pointer-free handle into the record chunks, so the collector scans no
// page. Records are carved out of chunks, so creating one allocates once
// per chunk rather than once per identifier, and a record never moves:
// queues hold *idRec.
type idTable struct {
	streams map[string]*idStream
	last    *idStream // the stream looked up last: runs of one client are the common case
	chunks  [][]idRec // in creation order; each is appended to within its capacity only
	n       int       // records created
}

// idStream is one client's identifiers.
type idStream struct {
	client string
	index  map[uint64]uint32 // seq>>6 → its page in pages
	pages  []idPage
	// lastKey is 1 + the seq>>6 looked up last and lastPage its page: a
	// run of one client's ids mostly stays within a page.
	lastKey, lastPage uint64
}

// idPage holds the records of 64 consecutive sequence numbers: slot
// seq&63 is 1 + the record's handle (chunk<<recSlotBits | slot in the
// chunk), 0 when the identifier has none.
type idPage [64]uint32

// maxRecChunk caps the records allocated at once; chunks grow with the
// table up to it, so a small replica stays small. recSlotBits is the
// handle's share for the slot within a chunk.
const (
	recSlotBits = 9
	maxRecChunk = 1 << recSlotBits
)

func newIDTable() idTable { return idTable{streams: make(map[string]*idStream)} }

// stream returns client's stream, nil when it has none.
func (t *idTable) stream(client string) *idStream {
	if s := t.last; s != nil && s.client == client {
		return s
	}
	s := t.streams[client]
	if s != nil {
		t.last = s
	}
	return s
}

// slot returns the page slot of seq, nil when its page does not exist.
func (s *idStream) slot(seq uint64) *uint32 {
	if k := seq>>6 + 1; k != s.lastKey {
		p, ok := s.index[k-1]
		if !ok {
			return nil
		}
		s.lastKey, s.lastPage = k, uint64(p)
	}
	return &s.pages[s.lastPage][seq&63]
}

// get returns id's record, nil when there is none.
func (t *idTable) get(id ops.ID) *idRec {
	s := t.stream(id.Client)
	if s == nil {
		return nil
	}
	if h := s.slot(id.Seq); h != nil && *h != 0 {
		return t.at(*h)
	}
	return nil
}

// at returns the record a page slot names.
func (t *idTable) at(h uint32) *idRec {
	h--
	return &t.chunks[h>>recSlotBits][h&(maxRecChunk-1)]
}

// rec returns id's record, creating an empty one (label ∞, no flags).
func (t *idTable) rec(id ops.ID) *idRec {
	s := t.stream(id.Client)
	if s == nil {
		s = &idStream{client: id.Client, index: make(map[uint64]uint32)}
		t.streams[id.Client], t.last = s, s
	}
	h := s.slot(id.Seq)
	if h == nil {
		s.index[id.Seq>>6] = uint32(len(s.pages))
		s.pages = append(s.pages, idPage{})
		s.lastKey, s.lastPage = id.Seq>>6+1, uint64(len(s.pages)-1)
		h = &s.pages[s.lastPage][id.Seq&63]
	} else if *h != 0 {
		return t.at(*h)
	}
	c := len(t.chunks) - 1
	if c < 0 || len(t.chunks[c]) == cap(t.chunks[c]) {
		t.chunks = append(t.chunks, make([]idRec, 0, min(t.n+16, maxRecChunk)))
		c++
	}
	// Extend the chunk and fill the fresh record in place: it is zero
	// already, and copying a whole record in would pay write barriers.
	slot := len(t.chunks[c])
	t.chunks[c] = t.chunks[c][:slot+1]
	e := &t.chunks[c][slot]
	e.id, e.label = id, label.Infinity
	t.n++
	*h = uint32(c<<recSlotBits|slot) + 1
	return e
}

// label returns label_r(id), ∞ when unknown.
func (t *idTable) label(id ops.ID) label.Label {
	if e := t.get(id); e != nil {
		return e.label
	}
	return label.Infinity
}

// all yields every record in the order they were created. The caller
// creates none while it iterates.
func (t *idTable) all() iter.Seq[*idRec] {
	return func(yield func(*idRec) bool) {
		for _, c := range t.chunks {
			for i := range c {
				if !yield(&c[i]) {
					return
				}
			}
		}
	}
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
