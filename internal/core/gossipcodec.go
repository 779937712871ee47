package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// Compact gossip wire form (DESIGN.md §12). A gossip delta is highly
// self-similar — ids repeat the same few client strings, labels are
// near-monotone, and gob re-sends full type descriptors on every TCP frame
// because TCPNet opens a fresh stream per frame. CompactGossipMsg replaces
// the GossipMsg frame with a hand-rolled byte payload (one element per
// frame from this build; older builds packed several ticks' deltas into
// one frame, and the layout still carries them):
//
//	V    uint8            codec version (compactGossipV1)
//	From label.ReplicaID  frame sender, hoisted out of every element
//	Data []byte:
//	    uvarint  baseSeq              min proper label Seq in the frame
//	    uvarint  nStrings             client-string intern table
//	      {uvarint len, bytes}...
//	    uvarint  nDescriptors         unique operation descriptors (dedup by id)
//	      {uvarint client idx, uvarint seq, flag byte (bit0 strict),
//	       uvarint nPrev, {uvarint client idx, uvarint seq}...}...
//	    uvarint  gobLen, bytes        ONE gob stream holding the operators of
//	                                  all unique descriptors, in table order —
//	                                  type descriptors are paid once per frame,
//	                                  not once per operator
//	    uvarint  nElements            the GossipMsg elements, in order
//	      {uvarint nR, {uvarint descriptor idx}...
//	       uvarint nD, {uvarint client idx, uvarint seq}...
//	       uvarint nL, {uvarint client idx, uvarint seq, label}...
//	       uvarint nS, {uvarint client idx, uvarint seq}...}...
//
//	label: flag byte (0 proper, 1 ∞); proper: uvarint (Seq-baseSeq),
//	       uvarint Replica — the delta against the frame's base label is
//	       what turns near-monotone 13-byte labels into 2–3 byte entries.
//
// The form is negotiated per peer (transport.FeatureNegotiator): a replica
// sends it only to peers that announced FeatureCompactGossip, so mixed
// clusters interoperate — everyone else, including every peer on an
// in-process transport (no wire, no negotiation), gets plain GossipMsg.
// The decoder is strict: any truncation, overrun, count larger than the
// bytes left, duplicate descriptor or out-of-range index rejects the WHOLE
// frame with an error — a corrupt frame is dropped and counted, never
// partially applied.

// compactGossipV1 is the only codec version so far. The V byte exists so a
// later layout can coexist: a decoder refuses versions it does not know,
// and the sender's negotiated feature bit can grow a per-version sibling.
const compactGossipV1 = 1

// CompactGossipMsg is the negotiated delta-encoded form of one or more
// GossipMsg elements from one sender, semantically identical to those
// elements arriving in order.
type CompactGossipMsg struct {
	V    uint8
	From label.ReplicaID
	Data []byte
}

// SubscribableGossip marks CompactGossipMsg as gossip-topic traffic: a
// transport with per-shard subscriptions may suppress it toward members
// that do not host the destination shard.
func (CompactGossipMsg) SubscribableGossip() {}

// compactOperators is the wrapper for the frame's single operator gob
// stream (gob needs a concrete top-level type; the operators inside are
// interface values covered by dtype.RegisterWire).
type compactOperators struct {
	Ops []dtype.Operator
}

// encodeCompactGossip packs msgs (all from `from`) into a CompactGossipMsg.
// It fails only when the operator gob stream does (an operator type
// missing its wire registration).
func encodeCompactGossip(from label.ReplicaID, msgs []GossipMsg) (CompactGossipMsg, error) {
	// Pass 1: intern client strings, dedup descriptors by id, find the base
	// label. Interning covers every id position (R ids, prev sets, D, L, S),
	// so each client string crosses the wire once per frame.
	strIdx := make(map[string]uint64)
	var strs []string
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint64(len(strs))
		strIdx[s] = i
		strs = append(strs, s)
		return i
	}
	descIdx := make(map[ops.ID]uint64)
	var descs []ops.Operation
	baseSeq := uint64(0)
	haveBase := false
	for _, g := range msgs {
		for _, x := range g.R {
			intern(x.ID.Client)
			for _, p := range x.Prev {
				intern(p.Client)
			}
			if _, dup := descIdx[x.ID]; !dup {
				descIdx[x.ID] = uint64(len(descs))
				descs = append(descs, x)
			}
		}
		for _, id := range g.D {
			intern(id.Client)
		}
		for id, l := range g.L {
			intern(id.Client)
			if !l.IsInf() && (!haveBase || l.Seq < baseSeq) {
				baseSeq, haveBase = l.Seq, true
			}
		}
		for _, id := range g.S {
			intern(id.Client)
		}
	}

	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	putID := func(id ops.ID) {
		putUvarint(strIdx[id.Client])
		putUvarint(id.Seq)
	}
	putLabel := func(l label.Label) {
		if l.IsInf() {
			buf.WriteByte(1)
			return
		}
		buf.WriteByte(0)
		putUvarint(l.Seq - baseSeq)
		putUvarint(uint64(uint32(l.Replica)))
	}

	putUvarint(baseSeq)
	putUvarint(uint64(len(strs)))
	for _, s := range strs {
		putUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	putUvarint(uint64(len(descs)))
	operators := make([]dtype.Operator, len(descs))
	for i, x := range descs {
		operators[i] = x.Op
		putID(x.ID)
		var flags byte
		if x.Strict {
			flags |= 1
		}
		buf.WriteByte(flags)
		putUvarint(uint64(len(x.Prev)))
		for _, p := range x.Prev {
			putID(p)
		}
	}
	var opsBlob bytes.Buffer
	if err := gob.NewEncoder(&opsBlob).Encode(compactOperators{Ops: operators}); err != nil {
		return CompactGossipMsg{}, fmt.Errorf("core: compact gossip operator encode: %w", err)
	}
	putUvarint(uint64(opsBlob.Len()))
	buf.Write(opsBlob.Bytes())
	putUvarint(uint64(len(msgs)))
	for _, g := range msgs {
		putUvarint(uint64(len(g.R)))
		for _, x := range g.R {
			putUvarint(descIdx[x.ID])
		}
		putUvarint(uint64(len(g.D)))
		for _, id := range g.D {
			putID(id)
		}
		putUvarint(uint64(len(g.L)))
		for id, l := range g.L {
			putID(id)
			putLabel(l)
		}
		putUvarint(uint64(len(g.S)))
		for _, id := range g.S {
			putID(id)
		}
	}
	return CompactGossipMsg{V: compactGossipV1, From: from, Data: buf.Bytes()}, nil
}

// compactReader walks a compact frame's Data with strict bounds checking.
// The first violation latches err; every later read returns zero values, so
// decode logic stays linear and checks the error once.
type compactReader struct {
	data []byte
	pos  int
	err  error
}

func (r *compactReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: compact gossip: "+format, args...)
	}
}

func (r *compactReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// count reads a uvarint and rejects it, BEFORE any allocation sized by it,
// when it exceeds the bytes left in the frame: every counted item — a
// string byte, a table entry, an element, an id — takes at least one byte,
// so a larger count is a lie, and believing it would let a six-byte frame
// allocate hundreds of megabytes.
func (r *compactReader) count(what string) int {
	v := r.uvarint()
	if left := uint64(len(r.data) - r.pos); v > left {
		r.fail("%s count %d exceeds the %d bytes left", what, v, left)
		return 0
	}
	return int(v)
}

func (r *compactReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("truncated at offset %d", r.pos)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *compactReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.fail("truncated: want %d bytes at offset %d of %d", n, r.pos, len(r.data))
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// decodeCompactGossip unpacks a compact frame into the GossipMsg elements
// it carries (each stamped with the frame's From, exactly as a
// BatchGossipMsg receiver requires of its elements). Any malformed input —
// truncation, trailing garbage, out-of-range intern or descriptor index,
// unknown version, an operator blob gob refuses — rejects the whole frame.
func decodeCompactGossip(m CompactGossipMsg) ([]GossipMsg, error) {
	if m.V != compactGossipV1 {
		return nil, fmt.Errorf("core: compact gossip: unknown version %d", m.V)
	}
	r := &compactReader{data: m.Data}
	baseSeq := r.uvarint()

	nStr := r.count("string table")
	strs := make([]string, 0, nStr)
	for i := 0; i < nStr && r.err == nil; i++ {
		strs = append(strs, string(r.bytes(r.count("string"))))
	}
	readID := func() ops.ID {
		ci := r.uvarint()
		seq := r.uvarint()
		if r.err != nil {
			return ops.ID{}
		}
		if ci >= uint64(len(strs)) {
			r.fail("string index %d out of range (%d strings)", ci, len(strs))
			return ops.ID{}
		}
		return ops.ID{Client: strs[ci], Seq: seq}
	}
	readLabel := func() label.Label {
		if r.byte() != 0 {
			return label.Infinity
		}
		delta := r.uvarint()
		rep := r.uvarint()
		if seq := baseSeq + delta; seq < baseSeq {
			r.fail("label delta overflow")
		} else if rep > uint64(^uint32(0)) {
			r.fail("label replica %d out of range", rep)
		} else {
			return label.Make(seq, label.ReplicaID(int32(uint32(rep))))
		}
		return label.Label{}
	}

	nDesc := r.count("descriptor table")
	descs := make([]ops.Operation, 0, nDesc)
	seen := make(map[ops.ID]bool, nDesc)
	for i := 0; i < nDesc && r.err == nil; i++ {
		id := readID()
		if seen[id] {
			// The encoder deduplicates by id; two entries for one id could
			// only disagree, and a re-encode would silently keep one.
			r.fail("duplicate descriptor %v", id)
		}
		seen[id] = true
		flags := r.byte()
		nPrev := r.count("prev set")
		prev := make([]ops.ID, 0, nPrev)
		for j := 0; j < nPrev && r.err == nil; j++ {
			prev = append(prev, readID())
		}
		// ops.New re-normalizes the prev set: a frame from a buggy or
		// hostile peer cannot smuggle in duplicates or self-references the
		// constructors rule out.
		descs = append(descs, ops.New(nil, id, prev, flags&1 != 0))
	}
	var operators compactOperators
	if blob := r.bytes(r.count("operator blob")); r.err == nil {
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&operators); err != nil {
			return nil, fmt.Errorf("core: compact gossip: operator blob: %w", err)
		}
		if len(operators.Ops) != len(descs) {
			return nil, fmt.Errorf("core: compact gossip: %d operators for %d descriptors",
				len(operators.Ops), len(descs))
		}
		for i := range descs {
			descs[i].Op = operators.Ops[i]
		}
	}

	nElem := r.count("element")
	msgs := make([]GossipMsg, 0, nElem)
	for e := 0; e < nElem && r.err == nil; e++ {
		g := GossipMsg{From: m.From}
		nR := r.count("R")
		for i := 0; i < nR && r.err == nil; i++ {
			di := r.uvarint()
			if di >= uint64(len(descs)) {
				r.fail("descriptor index %d out of range (%d descriptors)", di, len(descs))
				break
			}
			g.R = append(g.R, descs[di])
		}
		nD := r.count("D")
		for i := 0; i < nD && r.err == nil; i++ {
			g.D = append(g.D, readID())
		}
		nL := r.count("L")
		if nL > 0 && r.err == nil {
			g.L = make(map[ops.ID]label.Label, nL)
			for i := 0; i < nL && r.err == nil; i++ {
				id := readID()
				l := readLabel()
				if r.err == nil {
					g.L[id] = l
				}
			}
		}
		nS := r.count("S")
		for i := 0; i < nS && r.err == nil; i++ {
			g.S = append(g.S, readID())
		}
		msgs = append(msgs, g)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("core: compact gossip: %d trailing bytes", len(r.data)-r.pos)
	}
	return msgs, nil
}
