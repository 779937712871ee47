package core

import (
	"encoding/binary"
	"fmt"

	"esds/internal/label"
	"esds/internal/ops"
)

// Compact gossip wire form (DESIGN.md §12). A gossip delta is highly
// self-similar — ids repeat the same few client strings and labels are
// near-monotone. CompactGossipMsg replaces the GossipMsg frame with one
// hand-rolled byte payload, operators included, so gob walks none of its
// elements (one element per frame; the layout carries several, as builds
// that held deltas across ticks sent):
//
//	V    uint8            codec version (compactGossipV3)
//	From label.ReplicaID  frame sender, hoisted out of every element
//	Epoch, Base, Seq, Ack the GossipMsg header (gossip.go), plain fields
//	                      outside Data
//	Data []byte:
//	    uvarint  baseSeq              min proper label Seq in the frame
//	    uvarint  nDescriptors         unique operation descriptors (dedup by id)
//	      {op}...
//	    uvarint  nElements            the GossipMsg elements, in order
//	      {uvarint nR, {uvarint descriptor idx}...
//	       uvarint nD, {id}...
//	       uvarint nL, {id, label}...
//	       uvarint nS, {id}...}...
//
//	op, id: as in the hot frames (wire.go) — an id interns its client
//	       string inline, and an op carries its operator in dtype's wire
//	       form.
//	label: flag byte (0 proper, 1 ∞); proper: uvarint (Seq-baseSeq),
//	       uvarint Replica — the delta against the frame's base label is
//	       what turns near-monotone 13-byte labels into 2–3 byte entries.
//
// The form is negotiated per peer (transport.FeatureNegotiator): a replica
// sends it only to peers that announced FeatureCompactGossip — everyone
// else, including every peer on an in-process transport (no wire, no
// negotiation), gets plain GossipMsg, and so does a delta carrying an
// operator with no wire form. The decoder is strict: any truncation,
// overrun, count larger than the bytes left, duplicate descriptor, unknown
// tag or out-of-range index rejects the WHOLE frame with an error — a
// corrupt frame is dropped and counted, never partially applied.

// compactGossipV3 is the codec version; version 1 carried the operators
// as a gob blob inside Data, and version 2 beside it on the transport's
// gob stream. A decoder refuses versions it does not know.
const compactGossipV3 = 3

// CompactGossipMsg is the negotiated delta-encoded form of one or more
// GossipMsg elements from one sender, semantically identical to those
// elements arriving in order.
type CompactGossipMsg struct {
	V    uint8
	From label.ReplicaID
	Data []byte

	Epoch, Base, Seq, Ack uint64
}

// SubscribableGossip marks CompactGossipMsg as gossip-topic traffic: a
// transport with per-shard subscriptions may suppress it toward members
// that do not host the destination shard.
func (CompactGossipMsg) SubscribableGossip() {}

// encodeCompactGossip packs msgs (all from `from`) into a CompactGossipMsg.
// The header is the caller's to set. It fails when an operator has no
// wire form.
func encodeCompactGossip(from label.ReplicaID, msgs []GossipMsg) (CompactGossipMsg, error) {
	// Pass 1: dedup descriptors by id and find the base label.
	descIdx := make(map[ops.ID]uint64)
	var descs []ops.Operation
	baseSeq := uint64(0)
	haveBase := false
	for _, g := range msgs {
		for _, x := range g.R {
			if _, dup := descIdx[x.ID]; !dup {
				descIdx[x.ID] = uint64(len(descs))
				descs = append(descs, x)
			}
		}
		for _, l := range g.L {
			if !l.IsInf() && (!haveBase || l.Seq < baseSeq) {
				baseSeq, haveBase = l.Seq, true
			}
		}
	}

	e := frameEncoder{b: binary.AppendUvarint(nil, baseSeq)}
	e.b = binary.AppendUvarint(e.b, uint64(len(descs)))
	for _, x := range descs {
		if err := e.op(x); err != nil {
			return CompactGossipMsg{}, err
		}
	}
	ids := func(xs []ops.ID) {
		e.b = binary.AppendUvarint(e.b, uint64(len(xs)))
		for _, id := range xs {
			e.id(id)
		}
	}
	e.b = binary.AppendUvarint(e.b, uint64(len(msgs)))
	for _, g := range msgs {
		e.b = binary.AppendUvarint(e.b, uint64(len(g.R)))
		for _, x := range g.R {
			e.b = binary.AppendUvarint(e.b, descIdx[x.ID])
		}
		ids(g.D)
		e.b = binary.AppendUvarint(e.b, uint64(len(g.L)))
		for id, l := range g.L {
			e.id(id)
			if l.IsInf() {
				e.b = append(e.b, 1)
				continue
			}
			e.b = binary.AppendUvarint(append(e.b, 0), l.Seq-baseSeq)
			e.b = binary.AppendUvarint(e.b, uint64(uint32(l.Replica)))
		}
		ids(g.S)
	}
	return CompactGossipMsg{V: compactGossipV3, From: from, Data: e.b}, nil
}

// decodeCompactGossip unpacks a compact frame into the GossipMsg elements
// it carries, each stamped with the frame's From and header. Any malformed
// input — truncation, trailing garbage, an out-of-range descriptor index,
// an unknown version or tag — rejects the whole frame.
func decodeCompactGossip(m CompactGossipMsg) ([]GossipMsg, error) {
	if m.V != compactGossipV3 {
		return nil, fmt.Errorf("core: compact gossip: unknown version %d", m.V)
	}
	d := newFrameDecoder(m.Data)
	baseSeq := d.Uvarint()
	readLabel := func() label.Label {
		if d.Byte() != 0 {
			return label.Infinity
		}
		delta := d.Uvarint()
		rep := d.Uvarint()
		if seq := baseSeq + delta; seq < baseSeq {
			d.Fail("label delta overflow")
		} else if rep > uint64(^uint32(0)) {
			d.Fail("label replica %d out of range", rep)
		} else {
			return label.Make(seq, label.ReplicaID(int32(uint32(rep))))
		}
		return label.Label{}
	}
	ids := func(what string) []ops.ID {
		n := d.Count(what)
		if n == 0 {
			return nil
		}
		out := make([]ops.ID, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			out = append(out, d.id())
		}
		return out
	}

	nDesc := d.Count("descriptor table")
	descs := make([]ops.Operation, 0, nDesc)
	seen := make(map[ops.ID]bool, nDesc)
	for i := 0; i < nDesc && d.Err() == nil; i++ {
		x := d.op()
		if seen[x.ID] {
			// The encoder deduplicates by id; two entries for one id could
			// only disagree, and a re-encode would silently keep one.
			d.Fail("duplicate descriptor %v", x.ID)
		}
		seen[x.ID] = true
		descs = append(descs, x)
	}

	nElem := d.Count("element")
	msgs := make([]GossipMsg, 0, nElem)
	for e := 0; e < nElem && d.Err() == nil; e++ {
		g := GossipMsg{From: m.From, Epoch: m.Epoch, Base: m.Base, Seq: m.Seq, Ack: m.Ack}
		nR := d.Count("R")
		for i := 0; i < nR && d.Err() == nil; i++ {
			di := d.Uvarint()
			if di >= uint64(len(descs)) {
				d.Fail("descriptor index %d out of range (%d descriptors)", di, len(descs))
				break
			}
			g.R = append(g.R, descs[di])
		}
		g.D = ids("D")
		nL := d.Count("L")
		if nL > 0 && d.Err() == nil {
			g.L = make(map[ops.ID]label.Label, nL)
			for i := 0; i < nL && d.Err() == nil; i++ {
				id := d.id()
				l := readLabel()
				if d.Err() == nil {
					g.L[id] = l
				}
			}
		}
		g.S = ids("S")
		msgs = append(msgs, g)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: compact gossip: %w", err)
	}
	return msgs, nil
}
