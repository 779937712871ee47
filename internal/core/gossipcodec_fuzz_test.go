package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// compactOldFrames are compactTestFrame()-like frames as codec versions 2
// (operators beside Data, on the transport's gob stream) and 3 (a
// descriptor table that several elements indexed into) wrote them. Every
// build since refuses them by version, whatever the bytes.
var compactOldFrames = []struct {
	v   uint8
	hex string
}{
	{2, "64020c636c69656e742d616c7068610b636c69656e742d626574610300010000000201010001010100020001000203020001000200010000000002000702000201020100010101010100000200020101010101000d01010001"},
	{2, "64010c636c69656e742d616c70686102000100000002010100010102000100020001000000000200070200"},
	{3, "6403000c636c69656e742d616c7068610100000106000201010001010a010b636c69656e742d62657461010002000100020303020001000200020007020001000000000201020100010101010100000200020101010101000d01010001"},
	{3, "6402000c636c69656e742d616c7068610100000106000201010001010a0102000100020001000000000200070200"},
}

// FuzzCompactGossip feeds arbitrary payloads to the compact gossip decoder,
// the door through which a TCP peer's gossip bytes reach a replica — decoded
// whether or not the connection negotiated the form. Properties:
//
//   - it never panics;
//   - a frame of any version but the current one is rejected;
//   - a frame is either rejected whole, or it decodes to a message that
//     carries the frame's header and whose re-encoding decodes to the same
//     message;
//   - allocation is O(len(Data)): linear in the frame.
func FuzzCompactGossip(f *testing.F) {
	RegisterWire()
	full := compactTestFrame()
	valid := mustEncodeCompact(f, full)
	const none = uint64(0)
	const v4 = uint8(compactGossipV4)
	f.Add(v4, valid.Data, none, none, none, none) // every field: interning, repeated ids, ∞ labels
	f.Add(v4, mustEncodeCompact(f, GossipMsg{From: 2}).Data, none, none, none, none)
	// Every truncation point and every one-byte corruption — a low bit
	// (a count or ref off by one) and a high one — of the full frame, of
	// a frame carrying a keyed and a directory operator, and of the
	// one-operation frame.
	for _, frame := range [][]byte{valid.Data, mustEncodeCompact(f, mixedOpsFrame()).Data,
		mustEncodeCompact(f, GossipMsg{From: 2, R: full.R[:1], L: full.L[:1]}).Data} {
		for n := 0; n < len(frame); n++ {
			f.Add(v4, bytes.Clone(frame[:n]), none, none, none, none)
		}
		for _, mask := range []byte{0x01, 0x40} {
			for n := range frame {
				flipped := bytes.Clone(frame)
				flipped[n] ^= mask
				f.Add(v4, flipped, none, none, none, none)
			}
		}
	}
	f.Add(v4, append(bytes.Clone(valid.Data), 0), none, none, none, none)                   // trailing garbage
	f.Add(v4, binary.AppendUvarint([]byte{0}, 1<<22), none, none, none, none)               // five bytes claiming 1<<22 operations
	f.Add(v4, binary.AppendUvarint([]byte{0, 1, 0}, uint64(1)<<62), none, none, none, none) // a client string past any frame
	f.Add(v4, append(binary.AppendUvarint(nil, ^uint64(0)), 0), none, none, none, none)     // base label at the top of the space
	// Header fields (gossip.go): an honest frame, a Base above its Seq, and
	// every field at the top of its range. The decoder passes them through
	// untouched; the replica judges them (TestGossipHeaderRejects*).
	f.Add(v4, valid.Data, uint64(1)<<60, uint64(1)<<60+5, uint64(1)<<60+9, uint64(3))
	f.Add(v4, valid.Data, uint64(7), uint64(9), uint64(8), uint64(0))
	f.Add(v4, valid.Data, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	// Version 2 and 3 frames, which must be refused, and the current frame
	// under other versions.
	for _, old := range compactOldFrames {
		data, err := hex.DecodeString(old.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old.v, data, none, none, none, none)
	}
	for _, v := range []uint8{0, 1, 2, 3, v4 + 1, 0xff} {
		f.Add(v, valid.Data, none, none, none, none)
	}

	f.Fuzz(func(t *testing.T, v uint8, data []byte, epoch, base, seq, ack uint64) {
		m := CompactGossipMsg{V: v, From: 2, Data: data, Epoch: epoch, Base: base, Seq: seq, Ack: ack}
		var g GossipMsg
		var err error
		alloc := allocated(func() { g, err = decodeCompactGossip(m) })
		if budget := uint64(1<<20 + 1024*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), alloc, budget)
		}
		if v != compactGossipV4 && err == nil {
			t.Fatalf("a version %d frame decoded", v)
		}
		if err != nil {
			if !reflect.DeepEqual(g, GossipMsg{}) {
				t.Fatalf("rejected frame still returned %+v (%v)", g, err)
			}
			return
		}
		if g.From != m.From || g.Epoch != epoch || g.Base != base || g.Seq != seq || g.Ack != ack {
			t.Fatalf("message header %d %d/%d/%d/%d, frame header %d %d/%d/%d/%d", g.From, g.Epoch, g.Base, g.Seq, g.Ack, m.From, epoch, base, seq, ack)
		}
		again, err := encodeCompactGossip(g)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		got, err := decodeCompactGossip(again)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", got, g)
		}
	})
}

// mixedOpsFrame is a frame whose operators are a keyed counter increment
// and a directory update, so the sweeps reach string-carrying operator
// forms too.
func mixedOpsFrame() GossipMsg {
	a := ops.ID{Client: "kc", Seq: 1 << 33}
	b := ops.ID{Client: "kc", Seq: 1<<33 + 4}
	return GossipMsg{
		From: 2,
		R: []ops.Operation{
			ops.New(dtype.KeyedOp{Key: "cart:42", Op: dtype.CtrAdd{N: -7}}, a, nil, false),
			ops.New(dtype.DirSetAttr{Name: "home", Key: "addr", Val: "10.0.0.1"}, b, []ops.ID{a}, true),
		},
		L: []IDLabel{{ID: a, Label: label.Make(1<<40, 3)}, {ID: b, Label: label.Make(1<<40+1, 0)}},
		S: []ops.ID{a},
	}
}
