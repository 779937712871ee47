package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
)

// compactV2Frames are compactTestFrame() and its first element as codec
// version 2 wrote them (operators beside Data, on the transport's gob
// stream). Every build since refuses them by version, whatever the bytes.
var compactV2Frames = []string{
	"64020c636c69656e742d616c7068610b636c69656e742d626574610300010000000201010001010100020001000203020001000200010000000002000702000201020100010101010100000200020101010101000d01010001",
	"64010c636c69656e742d616c70686102000100000002010100010102000100020001000000000200070200",
}

// FuzzCompactGossip feeds arbitrary payloads to the compact gossip decoder,
// the door through which a TCP peer's gossip bytes reach a replica — decoded
// whether or not the connection negotiated the form. Properties:
//
//   - it never panics;
//   - a frame of any version but the current one is rejected;
//   - a frame is either rejected whole, or it decodes to elements that
//     carry the frame's header and whose re-encoding decodes to the same
//     elements;
//   - allocation is O(len(Data)): linear in the frame.
func FuzzCompactGossip(f *testing.F) {
	RegisterWire()
	valid := mustEncodeCompact(f, 2, compactTestFrame())
	const none = uint64(0)
	const v3 = uint8(compactGossipV3)
	f.Add(v3, valid.Data, none, none, none, none) // a multi-element frame: interning, dedup, ∞ labels
	f.Add(v3, mustEncodeCompact(f, 2, []GossipMsg{{From: 2}}).Data, none, none, none, none)
	// Every truncation point and every one-byte corruption — a low bit
	// (a count or index off by one) and a high one — of the multi-element
	// frame and of a one-element frame, the form every delta takes on
	// the wire.
	for _, frame := range [][]byte{valid.Data, mustEncodeCompact(f, 2, compactTestFrame()[:1]).Data} {
		for n := 0; n < len(frame); n++ {
			f.Add(v3, bytes.Clone(frame[:n]), none, none, none, none)
		}
		for _, mask := range []byte{0x01, 0x40} {
			for n := range frame {
				flipped := bytes.Clone(frame)
				flipped[n] ^= mask
				f.Add(v3, flipped, none, none, none, none)
			}
		}
	}
	f.Add(v3, append(bytes.Clone(valid.Data), 0), none, none, none, none)                   // trailing garbage
	f.Add(v3, binary.AppendUvarint([]byte{0}, 1<<22), none, none, none, none)               // five bytes claiming 1<<22 descriptors
	f.Add(v3, binary.AppendUvarint([]byte{0, 1, 0}, uint64(1)<<62), none, none, none, none) // a client string past any frame
	f.Add(v3, append(binary.AppendUvarint(nil, ^uint64(0)), 0), none, none, none, none)     // base label at the top of the space
	// Header fields (gossip.go): an honest frame, a Base above its Seq, and
	// every field at the top of its range. The decoder passes them through
	// untouched; the replica judges them (TestGossipHeaderRejects*).
	f.Add(v3, valid.Data, uint64(1)<<60, uint64(1)<<60+5, uint64(1)<<60+9, uint64(3))
	f.Add(v3, valid.Data, uint64(7), uint64(9), uint64(8), uint64(0))
	f.Add(v3, valid.Data, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	// Version 2 frames, which must be refused, and the current frame under
	// other versions.
	for _, h := range compactV2Frames {
		data, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(2), data, none, none, none, none)
	}
	for _, v := range []uint8{0, 1, 2, v3 + 1, 0xff} {
		f.Add(v, valid.Data, none, none, none, none)
	}

	f.Fuzz(func(t *testing.T, v uint8, data []byte, epoch, base, seq, ack uint64) {
		m := CompactGossipMsg{V: v, From: 2, Data: data, Epoch: epoch, Base: base, Seq: seq, Ack: ack}
		var msgs []GossipMsg
		var err error
		alloc := allocated(func() { msgs, err = decodeCompactGossip(m) })
		if budget := uint64(1<<20 + 1024*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), alloc, budget)
		}
		if v != compactGossipV3 && err == nil {
			t.Fatalf("a version %d frame decoded", v)
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
		again, err := encodeCompactGossip(m.From, msgs)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
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
