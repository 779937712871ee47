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
// frame), and the compact frame to encode smaller than the plain elements
// it replaces — the reason the codec exists.
func TestCompactGossipRoundTrip(t *testing.T) {
	RegisterWire()
	msgs := compactTestFrame()
	cm := encodeCompactGossip(2, msgs)
	if cm.V != compactGossipV2 || cm.From != 2 {
		t.Fatalf("frame header V=%d From=%d, want V=%d From=2", cm.V, cm.From, compactGossipV2)
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

	// The size claim, on the wire TCPNet runs: a connection's gob stream
	// that has already carried each type once, so the second frame of each
	// form pays no type definitions.
	streamed := func(v any) int {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		first := buf.Len()
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		return buf.Len() - first
	}
	compact, plain := streamed(cm), 0
	for _, g := range msgs {
		plain += streamed(g)
	}
	if compact >= plain {
		t.Fatalf("compact frame %dB not smaller than the plain elements' %dB", compact, plain)
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
		got, err := decodeCompactGossip(encodeCompactGossip(msgs[0].From, msgs))
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
	valid := encodeCompactGossip(2, compactTestFrame())

	// Every proper prefix is a truncation and must be rejected.
	for n := 0; n < len(valid.Data); n++ {
		if _, err := decodeCompactGossip(CompactGossipMsg{V: valid.V, From: valid.From, Data: valid.Data[:n], Ops: valid.Ops}); err == nil {
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
	// A structurally valid empty frame: baseSeq 0, no strings, no
	// descriptors, then the element section under test.
	empty := func(tail []byte) []byte {
		return append(uv(0, 0, 0), tail...)
	}
	// One descriptor (client 0 "x", seq 1, flags 0, no prev) and no elements.
	oneDesc := append(append(uv(0, 1, 1), 'x'), uv(1, 0, 1, 0, 0, 0)...)
	cases := map[string]CompactGossipMsg{
		"unknown version":      {V: compactGossipV2 + 1, From: 2, Data: valid.Data, Ops: valid.Ops},
		"version 1":            {V: compactGossipV2 - 1, From: 2, Data: valid.Data, Ops: valid.Ops},
		"trailing bytes":       {V: compactGossipV2, From: 2, Data: append(append([]byte{}, valid.Data...), 0), Ops: valid.Ops},
		"count past the frame": {V: compactGossipV2, From: 2, Data: uv(0, 3, 1, 'x')},
		"duplicate descriptor": func() CompactGossipMsg {
			a, b := ops.ID{Client: "x", Seq: 1}, ops.ID{Client: "x", Seq: 2}
			m := encodeCompactGossip(2, []GossipMsg{{From: 2, R: []ops.Operation{
				ops.New(dtype.CtrAdd{N: 1}, a, nil, false), ops.New(dtype.CtrAdd{N: 2}, b, nil, false)}}})
			// The second descriptor's {client 0, seq 2, flags, no prev}
			// becomes a second entry for x:1; the frame stays well formed.
			m.Data = bytes.Replace(m.Data, []byte{0, 2, 0, 0}, []byte{0, 1, 0, 0}, 1)
			return m
		}(),
		"descriptor index out of range": {V: compactGossipV2, From: 2,
			// one element, one R entry referencing descriptor 5 of an empty table
			Data: empty(uv(1, 1, 5))},
		"string index out of range": {V: compactGossipV2, From: 2,
			// one element, no R, one D id with client index 3 of an empty table
			Data: empty(uv(1, 0, 1, 3, 9))},
		"no operators for a descriptor":    {V: compactGossipV2, From: 2, Data: oneDesc},
		"two operators for one descriptor": {V: compactGossipV2, From: 2, Data: oneDesc, Ops: valid.Ops[:2]},
		"operators for no descriptor":      {V: compactGossipV2, From: 2, Data: empty(uv(0)), Ops: valid.Ops[:1]},
	}
	if _, err := decodeCompactGossip(CompactGossipMsg{V: compactGossipV2, From: 2, Data: oneDesc, Ops: valid.Ops[:1]}); err != nil {
		t.Fatalf("the one-descriptor frame the count cases alter is itself invalid: %v", err)
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
		decodeCompactGossip(CompactGossipMsg{V: valid.V, From: valid.From, Data: data, Ops: valid.Ops}) //nolint:errcheck
	}
}

// TestCompactGossipCountCannotAmplify pins the decoder's allocation bound:
// a six-byte frame claiming 1<<22 descriptors must be refused before
// anything is allocated for them (believing the count cost 288 MiB).
func TestCompactGossipCountCannotAmplify(t *testing.T) {
	frame := CompactGossipMsg{V: compactGossipV2, From: 2, Data: binary.AppendUvarint([]byte{0, 0}, 1<<22)}
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
