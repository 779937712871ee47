package core

import (
	"bytes"
	"iter"
	"unsafe"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
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
//
// A record holds no pointer: its client, descriptor, key and values are
// indices into the table's stream list, descriptor slab, key table and
// value arena. The chunks records are carved from are therefore never
// scanned by the collector, and writing a record pays no write barrier —
// most of a replica's heap is history below the stable frontier that
// never changes again (TestRetainedHistoryHasNoPointers keeps it so).
type idRec struct {
	seq uint64 // the identifier is (the stream's client, seq)

	// label_r(id) is (lseq, lrep) while recLabeled and ∞ otherwise: a
	// label.Label field would pad the record past 64 bytes.
	lseq uint64

	done   uint64 // bit i: id ∈ done_r[i]
	stable uint64 // bit i: id ∈ stable_r[i]

	lrep   label.ReplicaID
	client uint32 // the stream's index in idTable.list
	h      uint32 // the record's handle, as its page slot holds it
	desc   uint32 // the descriptor's slot in idTable.descs, while recRetained
	// key indexes the object of a keyed operation in idTable.keys, while
	// recKeyed. It survives pruning, like recRcvd, so a resize exporter can
	// enumerate a key's full source-era history after descriptors are gone.
	key  uint32
	memo valRef // the memoized value (§10.1), while recMemo
	cur  valRef // the value at its commute-mode apply (§10.3), while recCur

	flags recFlag
}

// recFlag is the set of one-bit facts an idRec holds.
type recFlag uint16

const (
	recRcvd     recFlag = 1 << iota // id ∈ rcvd_r, descriptor pruned or not
	recRetained                     // desc names the descriptor
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
	recLabeled // label_r(id) is proper: lseq and lrep hold it
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
//
// What a record names lives beside the chunks: the descriptors still
// retained in a slab that §10.2 pruning empties, the keys of keyed
// operations interned once each, and the memoized and commute-mode values
// in a value arena.
type idTable struct {
	streams map[string]*idStream
	list    []*idStream // in creation order: a record's client indexes it
	last    *idStream   // the stream looked up last: runs of one client are the common case
	chunks  [][]idRec   // in creation order; each is appended to within its capacity only
	n       int         // records created
	recCap  int         // records the chunks have room for
	pages   int         // pages the streams hold

	// descs holds the retained descriptors densely, and owner[i] is the
	// handle of the record descs[i] belongs to: releasing one moves the
	// last into its slot, so the slab is as long as the descriptors
	// retained. descsPeak is the most it held since the last trimDescs,
	// which gives its memory back.
	descs     []ops.Operation
	owner     []uint32
	descsPeak int

	keys     []string
	keyIndex map[string]uint32

	vals valueArena
}

// idStream is one client's identifiers.
type idStream struct {
	client string
	fe     transport.NodeID  // the client's front end, once a response named it
	n      uint32            // the stream's index in idTable.list
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

// at returns the record a handle names.
func (t *idTable) at(h uint32) *idRec {
	h--
	return &t.chunks[h>>recSlotBits][h&(maxRecChunk-1)]
}

// rec returns id's record, creating an empty one (label ∞, no flags).
func (t *idTable) rec(id ops.ID) *idRec { return t.recIn(t.streamOf(id.Client), id.Seq) }

// streamOf returns client's stream, creating an empty one.
func (t *idTable) streamOf(client string) *idStream {
	s := t.stream(client)
	if s == nil {
		s = &idStream{client: client, n: uint32(len(t.list)), index: make(map[uint64]uint32)}
		t.streams[client], t.last = s, s
		t.list = append(t.list, s)
	}
	return s
}

// recIn returns the record of sequence number seq in stream s, creating
// an empty one: a gossip merge resolves each client's stream once per
// frame and walks its runs' records by it.
func (t *idTable) recIn(s *idStream, seq uint64) *idRec {
	h := s.slot(seq)
	if h == nil {
		s.index[seq>>6] = uint32(len(s.pages))
		s.pages = append(s.pages, idPage{})
		t.pages++
		s.lastKey, s.lastPage = seq>>6+1, uint64(len(s.pages)-1)
		h = &s.pages[s.lastPage][seq&63]
	} else if *h != 0 {
		return t.at(*h)
	}
	c := len(t.chunks) - 1
	if c < 0 || len(t.chunks[c]) == cap(t.chunks[c]) {
		size := min(t.n+16, maxRecChunk)
		t.chunks = append(t.chunks, make([]idRec, 0, size))
		t.recCap += size
		c++
	}
	// Extend the chunk and fill the fresh record in place: it is zero
	// already.
	slot := len(t.chunks[c])
	t.chunks[c] = t.chunks[c][:slot+1]
	e := &t.chunks[c][slot]
	*h = uint32(c<<recSlotBits|slot) + 1
	e.seq, e.client, e.h = seq, s.n, *h
	t.n++
	return e
}

// id returns the identifier of a record.
func (t *idTable) id(e *idRec) ops.ID {
	return ops.ID{Client: t.list[e.client].client, Seq: e.seq}
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

// label returns label_r(id): ∞ until one is known.
func (e *idRec) label() label.Label {
	if e.flags&recLabeled == 0 {
		return label.Infinity
	}
	return label.Make(e.lseq, e.lrep)
}

// labeled reports whether the record's label is proper.
func (e *idRec) labeled() bool { return e.flags&recLabeled != 0 }

// setLabelMin lowers the record's label to min(label, l) — the merge rule
// label_r ← min(label_r, L) — and reports whether it changed.
func (e *idRec) setLabelMin(l label.Label) bool {
	if !l.Less(e.label()) {
		return false
	}
	e.lseq, e.lrep = l.Seq, l.Replica
	e.flags |= recLabeled
	return true
}

func (e *idRec) doneAt(i label.ReplicaID) bool   { return e.done&(1<<i) != 0 }
func (e *idRec) stableAt(i label.ReplicaID) bool { return e.stable&(1<<i) != 0 }
func (e *idRec) has(f recFlag) bool              { return e.flags&f != 0 }

// descriptor returns the retained descriptor, ok=false once pruned (or
// before it arrived).
func (t *idTable) descriptor(e *idRec) (ops.Operation, bool) {
	if !e.has(recRetained) {
		return ops.Operation{}, false
	}
	return t.descs[e.desc], true
}

// retain stores x as the record's descriptor.
func (t *idTable) retain(e *idRec, x ops.Operation) {
	e.desc = uint32(len(t.descs))
	t.descs = append(t.descs, x)
	t.owner = append(t.owner, e.h)
	t.descsPeak = max(t.descsPeak, len(t.descs))
	e.flags |= recRetained
}

// unretain releases the record's descriptor (§10.2 pruning) and reports
// whether it held one.
func (t *idTable) unretain(e *idRec) bool {
	if !e.has(recRetained) {
		return false
	}
	i, last := e.desc, len(t.descs)-1
	if int(i) != last {
		t.descs[i], t.owner[i] = t.descs[last], t.owner[last]
		t.at(t.owner[i]).desc = i
	}
	t.descs[last] = ops.Operation{}
	t.descs, t.owner = t.descs[:last], t.owner[:last]
	e.flags &^= recRetained
	return true
}

// trimDescs shrinks the slab to a quarter of its capacity when it held
// less than a sixteenth of it at every moment since the last call, which
// each gossip round makes. Within a round a loaded replica's retained
// descriptors swing between a few hundred and a few thousand, as
// operations arrive and stable ones are pruned in batches: judged at each
// release, the slab would shrink and regrow every round. Judged over a
// round, it keeps its working size and still gives a burst's memory back,
// a quarter per round.
func (t *idTable) trimDescs() {
	if c := cap(t.descs); c > 64 && t.descsPeak < c/16 {
		t.descs = append(make([]ops.Operation, 0, c/4), t.descs...)
		t.owner = append(make([]uint32, 0, c/4), t.owner...)
	}
	t.descsPeak = len(t.descs)
}

// dropPrev releases the prev set of the retained descriptor: only do_it
// needs it (§10.2).
func (t *idTable) dropPrev(e *idRec) {
	if e.has(recRetained) {
		t.descs[e.desc].Prev = nil
	}
}

// setKey records the object of a keyed operation, once.
func (t *idTable) setKey(e *idRec, key string) {
	if e.has(recKeyed) {
		return
	}
	k, ok := t.keyIndex[key]
	if !ok {
		if t.keyIndex == nil {
			t.keyIndex = make(map[string]uint32)
		}
		k = uint32(len(t.keys))
		t.keys = append(t.keys, key)
		t.keyIndex[key] = k
	}
	e.key = k
	e.flags |= recKeyed
}

// keyOf returns the object of a keyed operation, "" for any other.
func (t *idTable) keyOf(e *idRec) string {
	if !e.has(recKeyed) {
		return ""
	}
	return t.keys[e.key]
}

// setMemo and setCur retain a record's memoized and commute-mode values;
// memoOf and curOf decode them again.
func (t *idTable) setMemo(e *idRec, v dtype.Value) {
	e.memo = t.vals.put(v)
	e.flags |= recMemo
}

func (t *idTable) setCur(e *idRec, v dtype.Value) {
	e.cur = t.vals.put(v)
	e.flags |= recCur
}

func (t *idTable) memoOf(e *idRec) dtype.Value { return t.vals.get(e.memo) }
func (t *idTable) curOf(e *idRec) dtype.Value  { return t.vals.get(e.cur) }

// bytes is the heap the table's history holds, from counts and
// capacities: record chunks, pages, the descriptor slab and the value
// arena.
func (t *idTable) bytes() int {
	return t.recCap*int(unsafe.Sizeof(idRec{})) +
		t.pages*int(unsafe.Sizeof(idPage{})) +
		cap(t.descs)*int(unsafe.Sizeof(ops.Operation{})) + 4*cap(t.owner) +
		t.vals.bytes()
}

// valRef names a retained value: with sideRef set, its index in the
// arena's side table; otherwise block<<valOffBits | the offset of its wire
// form in the block.
type valRef uint32

const (
	valOffBits   = 16
	maxValBlock  = 1 << valOffBits        // the size blocks grow to
	maxValBlocks = 1 << (31 - valOffBits) // the blocks a ref can name
	sideRef      = valRef(1) << 31
)

// valueArena holds retained values in their wire form (dtype.AppendValue)
// in byte blocks, which the collector does not scan. Blocks grow with the
// bytes held, as record chunks do, up to maxValBlock; a value larger than
// that gets a block of its own. A value is decoded only when it is read
// again. A value whose wire form does not give it back exactly — one with
// no wire form, or an empty non-nil []string, which decodes as nil — is
// kept as it is in side, as is everything once maxValBlocks are full.
type valueArena struct {
	blocks [][]byte
	held   int // the blocks' capacity in bytes
	side   []dtype.Value
	// last names the value put last, lastLen its length (0 when it is in
	// side): a repeat of it, such as a counter's every "ok", takes no bytes.
	last    valRef
	lastLen int
	scratch []byte
}

// put retains v and returns its ref.
func (a *valueArena) put(v dtype.Value) valRef {
	b, err := dtype.AppendValue(a.scratch[:0], v)
	if s, ok := v.([]string); err != nil || ok && s != nil && len(s) == 0 {
		return a.putSide(v)
	}
	a.scratch = b
	if len(b) == a.lastLen && bytes.Equal(a.wire(a.last)[:len(b)], b) {
		return a.last
	}
	k := len(a.blocks) - 1
	if k < 0 || len(a.blocks[k])+len(b) > cap(a.blocks[k]) {
		if len(a.blocks) == maxValBlocks {
			return a.putSide(v)
		}
		size := max(len(b), min(a.held+64, maxValBlock))
		a.blocks = append(a.blocks, make([]byte, 0, size))
		a.held += size
		k++
	}
	off := len(a.blocks[k])
	a.blocks[k] = append(a.blocks[k], b...)
	a.last, a.lastLen = valRef(k<<valOffBits|off), len(b)
	return a.last
}

func (a *valueArena) putSide(v dtype.Value) valRef {
	a.side = append(a.side, v)
	a.lastLen = 0
	return sideRef | valRef(len(a.side)-1)
}

// wire returns the block bytes from a block ref's value on.
func (a *valueArena) wire(ref valRef) []byte {
	return a.blocks[ref>>valOffBits][ref&(maxValBlock-1):]
}

// get decodes the value ref names.
func (a *valueArena) get(ref valRef) dtype.Value {
	if ref&sideRef != 0 {
		return a.side[ref&^sideRef]
	}
	r := dtype.NewWireReader(a.wire(ref))
	return dtype.ReadValue(&r)
}

// bytes is the arena's heap: its blocks, and the side table's slots.
func (a *valueArena) bytes() int {
	return a.held + cap(a.side)*int(unsafe.Sizeof(dtype.Value(nil)))
}
