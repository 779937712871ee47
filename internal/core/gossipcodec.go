package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// Compact gossip wire form (DESIGN.md §12). A gossip delta is highly
// self-similar — ids repeat the same few client strings and labels are
// near-monotone. CompactGossipMsg replaces the GossipMsg frame with one
// hand-rolled byte payload, operators included, so gob walks none of its
// elements:
//
//	V    uint8            codec version (compactGossipV5)
//	From label.ReplicaID  frame sender
//	Epoch, Base, Seq, Ack the GossipMsg header (gossip.go), plain fields
//	                      outside Data
//	Data []byte:
//	    uvarint  baseSeq              min proper label Seq in the frame
//	    uvarint  nC, {string}...      Clients
//	    uvarint  nR, {op}...          R, in order
//	    uvarint  nD, {run}...         D
//	    uvarint  nL, {run, label}...  L, in order
//	    uvarint  nS, {run}...         S
//
//	op, id: as in the hot frames (wire.go) — an id interns its client
//	       string inline, and an op carries its operator in dtype's wire
//	       form. Clients are the frame's first interned strings, so an id
//	       of one of them names it by its index.
//	run:   uvarint Client (an index in Clients), uvarint Seq, uvarint N−1.
//	label: the first label of a run. Flag byte (0 proper, 1 ∞, any other
//	       refused); proper: uvarint (Seq-baseSeq), uvarint Replica — the
//	       delta against the frame's base label is what turns
//	       near-monotone 13-byte labels into 2–3 byte entries.
//
// The form is negotiated per peer (transport.FeatureNegotiator): a replica
// sends it only to peers that announced FeatureCompactGossip — everyone
// else, including every peer on an in-process transport (no wire, no
// negotiation), gets plain GossipMsg, and so does a delta carrying an
// operator with no wire form. The decoder is strict: any truncation,
// overrun, count larger than the bytes left, unknown tag or flag rejects
// the WHOLE frame with an error — a corrupt frame is dropped and counted,
// never partially applied. The runs of a decoded frame are judged by the
// replica, as a plain frame's are (GossipMsg.checkRuns): one no honest
// sender writes rejects the whole frame before any record is made. An R
// naming one id twice is passed on as it came: the receiver keeps the
// first descriptor (receiveOp), as it does for a plain frame.

// compactGossipV5 is the codec version; version 1 carried the operators
// as a gob blob inside Data, version 2 beside it on the transport's gob
// stream, version 3 a table of descriptors deduplicated by id that
// several elements indexed into, and version 4 one entry per identifier
// in D, L and S. A decoder refuses versions it does not know.
const compactGossipV5 = 5

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
	for _, u := range g.L {
		if l := u.Label; !l.IsInf() && (!haveBase || l.Seq < baseSeq) {
			baseSeq, haveBase = l.Seq, true
		}
	}
	e := frameEncoder{b: make([]byte, 0, 16+16*len(g.Clients)+24*len(g.R)+8*(len(g.D)+len(g.S))+12*len(g.L))}
	e.b = binary.AppendUvarint(e.b, baseSeq)
	e.b = binary.AppendUvarint(e.b, uint64(len(g.Clients)))
	for _, c := range g.Clients {
		e.introduce(c)
		e.b = dtype.AppendString(e.b, c)
	}
	e.b = binary.AppendUvarint(e.b, uint64(len(g.R)))
	for _, x := range g.R {
		if err := e.op(x); err != nil {
			return CompactGossipMsg{}, err
		}
	}
	run := func(u IDRun) {
		e.b = binary.AppendUvarint(e.b, uint64(u.Client))
		e.b = binary.AppendUvarint(e.b, u.Seq)
		e.b = binary.AppendUvarint(e.b, uint64(u.N-1))
	}
	runs := func(us []IDRun) {
		e.b = binary.AppendUvarint(e.b, uint64(len(us)))
		for _, u := range us {
			run(u)
		}
	}
	runs(g.D)
	e.b = binary.AppendUvarint(e.b, uint64(len(g.L)))
	for _, u := range g.L {
		run(u.IDRun)
		if l := u.Label; l.IsInf() {
			e.b = append(e.b, 1)
		} else {
			e.b = binary.AppendUvarint(append(e.b, 0), l.Seq-baseSeq)
			e.b = binary.AppendUvarint(e.b, uint64(uint32(l.Replica)))
		}
	}
	runs(g.S)
	return CompactGossipMsg{V: compactGossipV5, From: g.From, Data: e.b,
		Epoch: g.Epoch, Base: g.Base, Seq: g.Seq, Ack: g.Ack}, nil
}

// decodeCompactGossip unpacks a compact frame into the GossipMsg it
// carries, stamped with the frame's From and header. Any malformed input —
// truncation, trailing garbage, an unknown version or tag — rejects the
// whole frame; the replica judges the runs it decodes to, as it does a
// plain frame's (GossipMsg.checkRuns).
func decodeCompactGossip(m CompactGossipMsg) (GossipMsg, error) {
	var sc gossipScratch
	return sc.decode(m)
}

// gossipScratch holds the slices a replica decodes compact frames into,
// reused from one frame to the next: a frame is merged under the replica's
// mutex and forgotten (done) before the next is decoded, and the merge
// copies what it keeps of a descriptor into the identifier table.
type gossipScratch struct {
	strs []string // the frame's client table, then its operations' clients
	r    []ops.Operation
	d, s []IDRun
	l    []LabelRun
}

// reuse returns *buf emptied, with room for n; what it returns stays the
// scratch's backing array.
func reuse[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, 0, n)
	}
	return (*buf)[:0]
}

// done forgets g, the frame decode returned last: the descriptors and
// client names it held are released for the collector.
func (sc *gossipScratch) done(g GossipMsg) {
	clear(g.R)
	clear(sc.strs)
	sc.strs = sc.strs[:0]
	trim(&sc.strs)
	trim(&sc.r)
	trim(&sc.d)
	trim(&sc.s)
	trim(&sc.l)
}

// trim drops *buf when a catch-up frame grew it past maxKeptScratch.
func trim[T any](buf *[]T) {
	if cap(*buf) > maxKeptScratch {
		*buf = nil
	}
}

// decode is decodeCompactGossip into the scratch's slices: the frame it
// returns is valid until the next decode or done.
func (sc *gossipScratch) decode(m CompactGossipMsg) (GossipMsg, error) {
	if m.V != compactGossipV5 {
		return GossipMsg{}, fmt.Errorf("core: compact gossip: unknown version %d", m.V)
	}
	d := newFrameDecoder(m.Data)
	d.strs = sc.strs[:0]
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
	run := func() IDRun {
		c, seq, n := d.Uvarint(), d.Uvarint(), d.Uvarint()
		if c >= math.MaxUint32 || n >= math.MaxUint32 {
			d.Fail("run of %d identifiers of client %d", n+1, c)
			return IDRun{}
		}
		return IDRun{Seq: seq, Client: uint32(c), N: uint32(n) + 1}
	}
	runs := func(what string, buf *[]IDRun) []IDRun {
		n := d.Count(what)
		if n == 0 {
			return nil
		}
		out := reuse(buf, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			out = append(out, run())
		}
		return out
	}

	g := GossipMsg{From: m.From, Epoch: m.Epoch, Base: m.Base, Seq: m.Seq, Ack: m.Ack}
	if n := d.Count("clients"); n > 0 {
		for i := 0; i < n && d.Err() == nil; i++ {
			d.strs = append(d.strs, d.Str())
		}
		g.Clients = d.strs[:len(d.strs):len(d.strs)]
	}
	if n := d.Count("R"); n > 0 {
		g.R = reuse(&sc.r, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			g.R = append(g.R, d.op())
		}
	}
	g.D = runs("D", &sc.d)
	if n := d.Count("L"); n > 0 {
		g.L = reuse(&sc.l, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			u := run()
			g.L = append(g.L, LabelRun{IDRun: u, Label: readLabel()})
		}
	}
	g.S = runs("S", &sc.s)
	sc.strs = d.strs
	if err := d.Finish(); err != nil {
		clear(g.R)
		return GossipMsg{}, fmt.Errorf("core: compact gossip: %w", err)
	}
	return g, nil
}
