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
// elements:
//
//	V    uint8            codec version (compactGossipV4)
//	From label.ReplicaID  frame sender
//	Epoch, Base, Seq, Ack the GossipMsg header (gossip.go), plain fields
//	                      outside Data
//	Data []byte:
//	    uvarint  baseSeq              min proper label Seq in the frame
//	    uvarint  nR, {op}...          R, in order
//	    uvarint  nD, {id}...          D
//	    uvarint  nL, {id, label}...   L, in order
//	    uvarint  nS, {id}...          S
//
//	op, id: as in the hot frames (wire.go) — an id interns its client
//	       string inline, and an op carries its operator in dtype's wire
//	       form.
//	label: flag byte (0 proper, 1 ∞, any other refused); proper: uvarint (Seq-baseSeq),
//	       uvarint Replica — the delta against the frame's base label is
//	       what turns near-monotone 13-byte labels into 2–3 byte entries.
//
// The form is negotiated per peer (transport.FeatureNegotiator): a replica
// sends it only to peers that announced FeatureCompactGossip — everyone
// else, including every peer on an in-process transport (no wire, no
// negotiation), gets plain GossipMsg, and so does a delta carrying an
// operator with no wire form. The decoder is strict: any truncation,
// overrun, count larger than the bytes left, unknown tag or flag rejects
// the WHOLE frame with an error — a corrupt frame is dropped and counted,
// never partially applied. An R naming one id twice is passed on as it
// came: the receiver keeps the first descriptor (receiveOp), as it does
// for a plain frame.

// compactGossipV4 is the codec version; version 1 carried the operators
// as a gob blob inside Data, version 2 beside it on the transport's gob
// stream, and version 3 a table of descriptors deduplicated by id that
// several elements indexed into. A decoder refuses versions it does not
// know.
const compactGossipV4 = 4

// CompactGossipMsg is the negotiated delta-encoded form of one GossipMsg,
// semantically identical to it.
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

// encodeCompactGossip packs g, header included, into a CompactGossipMsg.
// It fails when an operator has no wire form.
func encodeCompactGossip(g GossipMsg) (CompactGossipMsg, error) {
	baseSeq := uint64(0)
	haveBase := false
	for _, il := range g.L {
		if l := il.Label; !l.IsInf() && (!haveBase || l.Seq < baseSeq) {
			baseSeq, haveBase = l.Seq, true
		}
	}
	e := frameEncoder{b: make([]byte, 0, 16+24*len(g.R)+8*(len(g.D)+len(g.S))+12*len(g.L))}
	e.b = binary.AppendUvarint(e.b, baseSeq)
	e.b = binary.AppendUvarint(e.b, uint64(len(g.R)))
	for _, x := range g.R {
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
	ids(g.D)
	e.b = binary.AppendUvarint(e.b, uint64(len(g.L)))
	for _, il := range g.L {
		e.id(il.ID)
		if l := il.Label; l.IsInf() {
			e.b = append(e.b, 1)
		} else {
			e.b = binary.AppendUvarint(append(e.b, 0), l.Seq-baseSeq)
			e.b = binary.AppendUvarint(e.b, uint64(uint32(l.Replica)))
		}
	}
	ids(g.S)
	return CompactGossipMsg{V: compactGossipV4, From: g.From, Data: e.b,
		Epoch: g.Epoch, Base: g.Base, Seq: g.Seq, Ack: g.Ack}, nil
}

// decodeCompactGossip unpacks a compact frame into the GossipMsg it
// carries, stamped with the frame's From and header. Any malformed input —
// truncation, trailing garbage, an unknown version or tag — rejects the
// whole frame.
func decodeCompactGossip(m CompactGossipMsg) (GossipMsg, error) {
	if m.V != compactGossipV4 {
		return GossipMsg{}, fmt.Errorf("core: compact gossip: unknown version %d", m.V)
	}
	d := newFrameDecoder(m.Data)
	baseSeq := d.Uvarint()
	readLabel := func() label.Label {
		switch d.Byte() {
		case 0:
		case 1:
			return label.Infinity
		default:
			d.Fail("label flag")
			return label.Label{}
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

	g := GossipMsg{From: m.From, Epoch: m.Epoch, Base: m.Base, Seq: m.Seq, Ack: m.Ack}
	if n := d.Count("R"); n > 0 {
		g.R = make([]ops.Operation, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			g.R = append(g.R, d.op())
		}
	}
	g.D = ids("D")
	if n := d.Count("L"); n > 0 {
		g.L = make([]IDLabel, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			id := d.id()
			g.L = append(g.L, IDLabel{ID: id, Label: readLabel()})
		}
	}
	g.S = ids("S")
	if err := d.Finish(); err != nil {
		return GossipMsg{}, fmt.Errorf("core: compact gossip: %w", err)
	}
	return g, nil
}
