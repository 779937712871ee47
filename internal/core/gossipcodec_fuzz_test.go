package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzCompactGossip feeds arbitrary payloads to the compact gossip decoder,
// the door through which a TCP peer's gossip bytes reach a replica — decoded
// whether or not the connection negotiated the form. The operators arrive
// decoded by the transport's gob stream; the fuzzed frame carries those of
// the seed frame, so a payload decodes only if it claims as many
// descriptors. Properties:
//
//   - it never panics;
//   - a frame is either rejected whole, or it decodes to elements that
//     carry the frame's header and whose re-encoding decodes to the same
//     elements;
//   - allocation is O(len(Data)): linear in the frame.
func FuzzCompactGossip(f *testing.F) {
	RegisterWire()
	valid := encodeCompactGossip(2, compactTestFrame())
	const none = uint64(0)
	f.Add(valid.Data, none, none, none, none) // a multi-element frame: interning, dedup, ∞ labels
	f.Add(encodeCompactGossip(2, []GossipMsg{{From: 2}}).Data, none, none, none, none)
	// Every truncation point and every one-byte corruption — a low bit
	// (a count or index off by one) and a high one — of the multi-element
	// frame and of a one-element frame, the form every delta takes on
	// the wire.
	for _, frame := range [][]byte{valid.Data, encodeCompactGossip(2, compactTestFrame()[:1]).Data} {
		for n := 0; n < len(frame); n++ {
			f.Add(bytes.Clone(frame[:n]), none, none, none, none)
		}
		for _, mask := range []byte{0x01, 0x40} {
			for n := range frame {
				flipped := bytes.Clone(frame)
				flipped[n] ^= mask
				f.Add(flipped, none, none, none, none)
			}
		}
	}
	f.Add(append(bytes.Clone(valid.Data), 0), none, none, none, none)               // trailing garbage
	f.Add(binary.AppendUvarint([]byte{0, 0}, 1<<22), none, none, none, none)        // six bytes claiming 1<<22 descriptors
	f.Add(binary.AppendUvarint([]byte{0}, uint64(1)<<62), none, none, none, none)   // a string table past any frame
	f.Add(append(binary.AppendUvarint(nil, ^uint64(0)), 0), none, none, none, none) // base label at the top of the space
	// Header fields (gossip.go): an honest frame, a Base above its Seq, and
	// every field at the top of its range. The decoder passes them through
	// untouched; the replica judges them (TestGossipHeaderRejects*).
	f.Add(valid.Data, uint64(1)<<60, uint64(1)<<60+5, uint64(1)<<60+9, uint64(3))
	f.Add(valid.Data, uint64(7), uint64(9), uint64(8), uint64(0))
	f.Add(valid.Data, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, epoch, base, seq, ack uint64) {
		m := CompactGossipMsg{V: compactGossipV2, From: 2, Data: data, Ops: valid.Ops, Epoch: epoch, Base: base, Seq: seq, Ack: ack}
		var msgs []GossipMsg
		var err error
		alloc := allocated(func() { msgs, err = decodeCompactGossip(m) })
		if budget := uint64(1<<20 + 1024*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), alloc, budget)
		}
		if err != nil {
			if msgs != nil {
				t.Fatalf("rejected frame still returned %d elements (%v)", len(msgs), err)
			}
			return
		}
		for _, g := range msgs {
			if g.Epoch != epoch || g.Base != base || g.Seq != seq || g.Ack != ack {
				t.Fatalf("element header %d/%d/%d/%d, frame header %d/%d/%d/%d", g.Epoch, g.Base, g.Seq, g.Ack, epoch, base, seq, ack)
			}
		}
		again := encodeCompactGossip(m.From, msgs)
		again.Epoch, again.Base, again.Seq, again.Ack = epoch, base, seq, ack
		got, err := decodeCompactGossip(again)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(got, msgs) {
			t.Fatalf("round trip changed the elements:\n got %+v\nwant %+v", got, msgs)
		}
	})
}
