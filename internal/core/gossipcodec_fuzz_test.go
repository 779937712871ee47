package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// compactOldFrames are compactTestFrame()-like frames as codec versions 2
// (operators beside Data, on the transport's gob stream), 3 (a descriptor
// table that several elements indexed into) and 4 (one entry per
// identifier in D, L and S) wrote them. Every build since refuses them by
// version, whatever the bytes.
var compactOldFrames = []struct {
	v   uint8
	hex string
}{
	{2, "64020c636c69656e742d616c7068610b636c69656e742d626574610300010000000201010001010100020001000203020001000200010000000002000702000201020100010101010100000200020101010101000d01010001"},
	{2, "64010c636c69656e742d616c70686102000100000002010100010102000100020001000000000200070200"},
	{3, "6403000c636c69656e742d616c7068610100000106000201010001010a010b636c69656e742d62657461010002000100020303020001000200020007020001000000000201020100010101010100000200020101010101000d01010001"},
	{3, "6402000c636c69656e742d616c7068610100000106000201010001010a0102000100020001000000000200070200"},
	{4, "6403000c636c69656e742d616c7068610100000106000201010001010a010b636c69656e742d6265746101000200010002030300010002010104000100000000020007020101010101000d01010001"},
	{4, "6401000c636c69656e742d616c70686101000001060001000100000000"},
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
//   - a decoded message whose runs pass checkRuns, as the replica requires
//     before it merges any, names no more identifiers than its log range
//     and a frame hold, no client that no run names, and no run that
//     wraps;
//   - allocation is O(len(Data)): linear in the frame.
func FuzzCompactGossip(f *testing.F) {
	RegisterWire()
	full := compactTestFrame()
	valid := mustEncodeCompact(f, full)
	const none = uint64(0)
	const v5 = uint8(compactGossipV5)
	add := func(m CompactGossipMsg) { f.Add(m.V, m.Data, m.Epoch, m.Base, m.Seq, m.Ack) }
	add(valid) // every field: interning, repeated ids, ∞ labels
	add(mustEncodeCompact(f, GossipMsg{From: 2}))
	// Every truncation point and every one-byte corruption — a low bit
	// (a count or ref off by one) and a high one — of the full frame, of
	// a frame carrying a keyed and a directory operator, of the
	// one-operation frame and of a frame of dense, strided and lone runs,
	// each under its own header.
	runs := runFrames()
	for _, frame := range []CompactGossipMsg{valid, mustEncodeCompact(f, stamped(mixedOpsFrame())),
		mustEncodeCompact(f, GossipMsg{From: 2, R: full.R[:1], L: full.L[:1], Seq: 2}),
		mustEncodeCompact(f, stamped(GossipMsg{From: 2, D: append(runs["dense"].D, runs["lone"].D[:4]...),
			L: runs["replica-broken"].L, S: runs["strided"].S[:4]}))} {
		for n := 0; n < len(frame.Data); n++ {
			f.Add(v5, bytes.Clone(frame.Data[:n]), frame.Epoch, frame.Base, frame.Seq, frame.Ack)
		}
		for _, mask := range []byte{0x01, 0x40} {
			for n := range frame.Data {
				flipped := bytes.Clone(frame.Data)
				flipped[n] ^= mask
				f.Add(v5, flipped, frame.Epoch, frame.Base, frame.Seq, frame.Ack)
			}
		}
	}
	// Runs no honest sender writes (unsoundRunFrames): among them a
	// sequence number that wraps inside a run, a run past the log range, an
	// ∞ label on two identifiers, and a frame of a new incarnation whose
	// log range is 2^32 with one run of 2^32−1 identifiers.
	for _, g := range unsoundRunFrames(1<<40, 1<<40+5) {
		add(mustEncodeCompact(f, g))
	}
	bumped := unsoundRunFrames(1<<40, 1<<40+5)["past the frame bound"]
	bumped.D[0].N = math.MaxUint32
	add(mustEncodeCompact(f, bumped))
	f.Add(v5, append(bytes.Clone(valid.Data), 0), none, none, none, none)                   // trailing garbage
	f.Add(v5, binary.AppendUvarint([]byte{0}, 1<<22), none, none, none, none)               // five bytes claiming 1<<22 operations
	f.Add(v5, binary.AppendUvarint([]byte{0, 1, 0}, uint64(1)<<62), none, none, none, none) // a client string past any frame
	f.Add(v5, append(binary.AppendUvarint(nil, ^uint64(0)), 0), none, none, none, none)     // base label at the top of the space
	// Header fields (gossip.go): an honest frame, a Base above its Seq, and
	// every field at the top of its range. The decoder passes them through
	// untouched; the replica judges them (TestGossipHeaderRejects*).
	f.Add(v5, valid.Data, uint64(1)<<60, uint64(1)<<60+5, uint64(1)<<60+25, uint64(3))
	f.Add(v5, valid.Data, uint64(7), uint64(9), uint64(8), uint64(0))
	f.Add(v5, valid.Data, ^uint64(0), none, ^uint64(0), ^uint64(0))
	// Version 2, 3 and 4 frames, which must be refused, and the current
	// frame under other versions.
	for _, old := range compactOldFrames {
		data, err := hex.DecodeString(old.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old.v, data, valid.Epoch, valid.Base, valid.Seq, valid.Ack)
	}
	for _, v := range []uint8{0, 1, 2, 3, 4, v5 + 1, 0xff} {
		f.Add(v, valid.Data, valid.Epoch, valid.Base, valid.Seq, valid.Ack)
	}

	f.Fuzz(func(t *testing.T, v uint8, data []byte, epoch, base, seq, ack uint64) {
		m := CompactGossipMsg{V: v, From: 2, Data: data, Epoch: epoch, Base: base, Seq: seq, Ack: ack}
		var g GossipMsg
		var err error
		alloc := allocated(func() { g, err = decodeCompactGossip(m) })
		if budget := uint64(1<<20 + 1024*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), alloc, budget)
		}
		if v != compactGossipV5 && err == nil {
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
		// The replica merges a decoded frame only if its runs pass
		// checkRuns; one that does is sound and bounded.
		if limit := frameLimit(base, seq); g.checkRuns(limit) == nil {
			if n := frameIDs(g); n > limit || n > maxFrameEntries || base > seq && n > 0 || n > seq-base {
				t.Fatalf("runs naming %d identifiers passed under log range [%d, %d)", n, base, seq)
			}
			if runs := len(g.D) + len(g.L) + len(g.S); len(g.Clients) > runs {
				t.Fatalf("%d clients for %d runs passed", len(g.Clients), runs)
			}
			runs := append(slices.Clone(g.D), g.S...)
			for _, u := range g.L {
				if u.N > 1 && (u.Label.IsInf() || u.Label.Seq+uint64(u.N)-1 < u.Label.Seq) {
					t.Fatalf("label run %+v passed", u)
				}
				runs = append(runs, u.IDRun)
			}
			for _, u := range runs {
				if int(u.Client) >= len(g.Clients) || u.N == 0 || u.Seq+uint64(u.N)-1 < u.Seq {
					t.Fatalf("run %+v of a %d-client table passed", u, len(g.Clients))
				}
			}
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
	return withRuns(GossipMsg{
		From: 2,
		R: []ops.Operation{
			ops.New(dtype.KeyedOp{Key: "cart:42", Op: dtype.CtrAdd{N: -7}}, a, nil, false),
			ops.New(dtype.DirSetAttr{Name: "home", Key: "addr", Val: "10.0.0.1"}, b, []ops.ID{a}, true),
		},
	}, nil, []idLabel{{a, label.Make(1<<40, 3)}, {b, label.Make(1<<40+1, 0)}}, []ops.ID{a})
}
