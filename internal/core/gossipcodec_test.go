package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// compactTestFrame builds a representative multi-element frame: three
// elements exercising every field the codec carries — R with operators,
// prev sets and strict flags, D and S identifier lists, L with proper and ∞ labels, and
// repeated client strings so interning and descriptor dedup have work to do.
func compactTestFrame() []GossipMsg {
	idA1 := ops.ID{Client: "client-alpha", Seq: 1}
	idA2 := ops.ID{Client: "client-alpha", Seq: 2}
	idB1 := ops.ID{Client: "client-beta", Seq: 1}
	opA1 := ops.New(dtype.CtrAdd{N: 3}, idA1, nil, false)
	opA2 := ops.New(dtype.CtrAdd{N: 5}, idA2, []ops.ID{idA1}, true)
	opB1 := ops.New(dtype.CtrRead{}, idB1, []ops.ID{idA1, idA2}, false)
	return []GossipMsg{
		{
			From: 2,
			R:    []ops.Operation{opA1, opA2},
			L: map[ops.ID]label.Label{
				idA1: label.Make(100, 0),
				idA2: label.Make(107, 2),
			},
		},
		{
			From: 2,
			R:    []ops.Operation{opA2, opB1}, // opA2 dedups against element 0
			D:    []ops.ID{idA1},
			L: map[ops.ID]label.Label{
				idB1: label.Infinity, // ∞ sentinel must survive the delta form
			},
		},
		{
			From: 2,
			D:    []ops.ID{idA2, idB1},
			L:    map[ops.ID]label.Label{idB1: label.Make(113, 1)},
			S:    []ops.ID{idA1},
		},
	}
}

// TestCompactGossipRoundTrip encodes a multi-element flush and requires the
// decode to reproduce every element exactly (with From stamped from the
// frame), and the compact payload to be smaller than the legacy gob frame it
// replaces — the reason the codec exists.
func TestCompactGossipRoundTrip(t *testing.T) {
	RegisterWire()
	msgs := compactTestFrame()
	cm, err := encodeCompactGossip(2, msgs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if cm.V != compactGossipV1 || cm.From != 2 {
		t.Fatalf("frame header V=%d From=%d, want V=%d From=2", cm.V, cm.From, compactGossipV1)
	}
	got, err := decodeCompactGossip(cm)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d elements, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(got[i], msgs[i]) {
			t.Fatalf("element %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], msgs[i])
		}
	}

	// The size claim: the same flush as the legacy wrapper, encoded the way
	// TCPNet frames it (a fresh gob stream, paying full type descriptors).
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(BatchGossipMsg{From: 2, Msgs: msgs}); err != nil {
		t.Fatalf("legacy encode: %v", err)
	}
	if len(cm.Data) >= legacy.Len() {
		t.Fatalf("compact payload %dB not smaller than legacy gob %dB", len(cm.Data), legacy.Len())
	}
}

// TestCompactGossipRoundTripSingle covers the single-element frame — the
// form every delta takes on a negotiated wire — and the all-empty
// degenerate element.
func TestCompactGossipRoundTripSingle(t *testing.T) {
	RegisterWire()
	for _, msgs := range [][]GossipMsg{
		compactTestFrame()[:1],
		{{From: 1}},
	} {
		cm, err := encodeCompactGossip(msgs[0].From, msgs)
		if err != nil {
			t.Fatalf("encode %+v: %v", msgs, err)
		}
		got, err := decodeCompactGossip(cm)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, msgs) {
			t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, msgs)
		}
	}
}

// TestCompactGossipRejectsGarbage feeds the decoder malformed frames: every
// one must return an error — never panic, never a partial decode.
func TestCompactGossipRejectsGarbage(t *testing.T) {
	RegisterWire()
	valid, err := encodeCompactGossip(2, compactTestFrame())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Every proper prefix is a truncation and must be rejected.
	for n := 0; n < len(valid.Data); n++ {
		if _, err := decodeCompactGossip(CompactGossipMsg{V: valid.V, From: valid.From, Data: valid.Data[:n]}); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(valid.Data))
		}
	}

	uv := func(vs ...uint64) []byte {
		var b []byte
		var tmp [binary.MaxVarintLen64]byte
		for _, v := range vs {
			b = append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
		}
		return b
	}
	var emptyOps bytes.Buffer
	if err := gob.NewEncoder(&emptyOps).Encode(compactOperators{}); err != nil {
		t.Fatalf("gob: %v", err)
	}
	// A structurally valid empty frame: baseSeq 0, no strings, no
	// descriptors, empty operator blob, then the element section under test.
	empty := func(tail []byte) []byte {
		b := uv(0, 0, 0)
		b = append(b, uv(uint64(emptyOps.Len()))...)
		b = append(b, emptyOps.Bytes()...)
		return append(b, tail...)
	}
	cases := map[string]CompactGossipMsg{
		"unknown version":      {V: compactGossipV1 + 1, From: 2, Data: valid.Data},
		"trailing bytes":       {V: compactGossipV1, From: 2, Data: append(append([]byte{}, valid.Data...), 0)},
		"count past the frame": {V: compactGossipV1, From: 2, Data: uv(0, 3, 1, 'x')},
		"duplicate descriptor": func() CompactGossipMsg {
			a, b := ops.ID{Client: "x", Seq: 1}, ops.ID{Client: "x", Seq: 2}
			m, err := encodeCompactGossip(2, []GossipMsg{{From: 2, R: []ops.Operation{
				ops.New(dtype.CtrAdd{N: 1}, a, nil, false), ops.New(dtype.CtrAdd{N: 2}, b, nil, false)}}})
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			// The second descriptor's {client 0, seq 2, flags, no prev}
			// becomes a second entry for x:1; the frame stays well formed.
			m.Data = bytes.Replace(m.Data, []byte{0, 2, 0, 0}, []byte{0, 1, 0, 0}, 1)
			return m
		}(),
		"descriptor index out of range": {V: compactGossipV1, From: 2,
			// one element, one R entry referencing descriptor 5 of an empty table
			Data: empty(uv(1, 1, 5))},
		"string index out of range": {V: compactGossipV1, From: 2,
			// one element, no R, one D id with client index 3 of an empty table
			Data: empty(uv(1, 0, 1, 3, 9))},
		"operator count mismatch": {V: compactGossipV1, From: 2,
			// one descriptor (client 0 "x", seq 1, flags 0, no prev) but an
			// EMPTY operator blob: 0 operators for 1 descriptor
			Data: func() []byte {
				b := uv(0, 1, 1)
				b = append(b, 'x')
				b = append(b, uv(1)...) // nDesc
				b = append(b, uv(0)...) // desc: client idx
				b = append(b, uv(1)...) // desc: seq
				b = append(b, 0)        // desc: flags
				b = append(b, uv(0)...) // desc: nPrev
				b = append(b, uv(uint64(emptyOps.Len()))...)
				b = append(b, emptyOps.Bytes()...)
				return append(b, uv(0)...) // nElements
			}()},
		"corrupt operator blob": {V: compactGossipV1, From: 2,
			Data: append(empty(nil)[:len(uv(0, 0, 0))], append(uv(4), 0xde, 0xad, 0xbe, 0xef)...)},
	}
	for name, m := range cases {
		if _, err := decodeCompactGossip(m); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}

	// Byte-flip sweep: single-bit corruption anywhere in a valid frame must
	// never panic (an error or an accidental clean decode are both fine).
	for i := range valid.Data {
		data := append([]byte{}, valid.Data...)
		data[i] ^= 0x40
		decodeCompactGossip(CompactGossipMsg{V: valid.V, From: valid.From, Data: data}) //nolint:errcheck
	}
}

// TestCompactGossipCountCannotAmplify pins the decoder's allocation bound:
// a six-byte frame claiming 1<<22 descriptors must be refused before
// anything is allocated for them (believing the count cost 288 MiB).
func TestCompactGossipCountCannotAmplify(t *testing.T) {
	frame := CompactGossipMsg{V: compactGossipV1, From: 2, Data: binary.AppendUvarint([]byte{0, 0}, 1<<22)}
	if len(frame.Data) != 6 {
		t.Fatalf("frame is %d bytes, want 6", len(frame.Data))
	}
	var err error
	alloc := allocated(func() { _, err = decodeCompactGossip(frame) })
	if err == nil {
		t.Fatal("a frame claiming 1<<22 descriptors in 6 bytes decoded without error")
	}
	if alloc >= 1<<20 {
		t.Fatalf("decoding a 6-byte frame allocated %d bytes", alloc)
	}
}

// allocated reports the bytes the process allocated while fn ran: the least
// of three runs, so a stray background allocation cannot inflate it.
func allocated(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}
