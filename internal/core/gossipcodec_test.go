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
	"esds/internal/sim"
	"esds/internal/transport"
)

// compactTestFrame builds a representative frame exercising every field
// the codec carries — R with operators, prev sets and strict flags, D and S
// identifier lists, L with proper and ∞ labels and an id labelled twice
// (as a delta lists a label lowered twice), the header, and repeated
// client strings so interning has work to do.
func compactTestFrame() GossipMsg {
	idA1 := ops.ID{Client: "client-alpha", Seq: 1}
	idA2 := ops.ID{Client: "client-alpha", Seq: 2}
	idB1 := ops.ID{Client: "client-beta", Seq: 1}
	opA1 := ops.New(dtype.CtrAdd{N: 3}, idA1, nil, false)
	opA2 := ops.New(dtype.CtrAdd{N: 5}, idA2, []ops.ID{idA1}, true)
	opB1 := ops.New(dtype.CtrRead{}, idB1, []ops.ID{idA1, idA2}, false)
	return GossipMsg{
		From: 2,
		R:    []ops.Operation{opA1, opA2, opB1},
		D:    []ops.ID{idA1, idA2, idB1},
		L: []IDLabel{
			{ID: idA1, Label: label.Make(100, 0)},
			{ID: idA2, Label: label.Make(107, 2)},
			{ID: idB1, Label: label.Infinity}, // ∞ sentinel must survive the delta form
			{ID: idB1, Label: label.Make(113, 1)},
		},
		S:     []ops.ID{idA1},
		Epoch: 1 << 40, Base: 1<<40 + 17, Seq: 1<<40 + 29, Ack: 5,
	}
}

// TestCompactGossipRoundTrip encodes a frame and requires the decode to
// reproduce it exactly, header included, and the compact frame to encode
// smaller than the plain frame it replaces — the reason the codec exists.
func TestCompactGossipRoundTrip(t *testing.T) {
	RegisterWire()
	msg := compactTestFrame()
	cm := mustEncodeCompact(t, msg)
	if cm.V != compactGossipV4 || cm.From != 2 {
		t.Fatalf("frame header V=%d From=%d, want V=%d From=2", cm.V, cm.From, compactGossipV4)
	}
	got, err := decodeCompactGossip(cm)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, msg)
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
	if compact, plain := streamed(cm), streamed(msg); compact >= plain {
		t.Fatalf("compact frame %dB not smaller than the plain frame's %dB", compact, plain)
	}
}

// TestCompactGossipRoundTripSingle covers the smallest frames: one
// operation with its label, and the acknowledgement-only frame with no
// content at all.
func TestCompactGossipRoundTripSingle(t *testing.T) {
	RegisterWire()
	full := compactTestFrame()
	for _, msg := range []GossipMsg{
		{From: 2, R: full.R[:1], L: full.L[:1], Epoch: 3, Base: 4, Seq: 5},
		{From: 1, Ack: 9},
	} {
		got, err := decodeCompactGossip(mustEncodeCompact(t, msg))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, msg)
		}
	}
}

// TestCompactGossipRejectsGarbage feeds the decoder malformed frames: every
// one must return an error — never panic, never a partial decode.
func TestCompactGossipRejectsGarbage(t *testing.T) {
	RegisterWire()
	valid := mustEncodeCompact(t, compactTestFrame())

	// Every proper prefix is a truncation and must be rejected.
	for n := 0; n < len(valid.Data); n++ {
		if _, err := decodeCompactGossip(CompactGossipMsg{V: valid.V, From: valid.From, Data: valid.Data[:n]}); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(valid.Data))
		}
	}

	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// One operation in R (client ref 0 introducing "x", seq 1, flags 0,
	// no prev, the operator under test) and empty D, L and S.
	oneOp := func(op ...byte) []byte {
		b := append(uv(0, 1, 0, 1), 'x')
		b = append(append(b, uv(1, 0, 0)...), op...)
		return append(b, uv(0, 0, 0)...)
	}
	ctrRead, err := dtype.AppendOperator(nil, dtype.CtrRead{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]CompactGossipMsg{
		"unknown version":      {V: compactGossipV4 + 1, From: 2, Data: valid.Data},
		"version 1":            {V: 1, From: 2, Data: valid.Data},
		"version 2":            {V: 2, From: 2, Data: valid.Data},
		"version 3":            {V: 3, From: 2, Data: valid.Data},
		"trailing bytes":       {V: compactGossipV4, From: 2, Data: append(bytes.Clone(valid.Data), 0)},
		"count past the frame": {V: compactGossipV4, From: 2, Data: uv(0, 3, 1)},
		"client ref past the strings introduced": {V: compactGossipV4, From: 2,
			// no R, one D id with client ref 3 before any string
			Data: uv(0, 0, 1, 3, 9, 0, 0)},
		"unknown operator tag":       {V: compactGossipV4, From: 2, Data: oneOp(0xff)},
		"value where an operator is": {V: compactGossipV4, From: 2, Data: oneOp(mustAppendValue(t, "ok")...)},
		"unknown descriptor flag":    {V: compactGossipV4, From: 2, Data: bytes.Replace(oneOp(ctrRead...), []byte{'x', 1, 0}, []byte{'x', 1, 2}, 1)},
		"unknown label flag":         {V: compactGossipV4, From: 2, Data: append(uv(0, 0, 0, 1, 0, 1), 'x', 1, 2, 0)},
	}
	if _, err := decodeCompactGossip(CompactGossipMsg{V: compactGossipV4, From: 2, Data: oneOp(ctrRead...)}); err != nil {
		t.Fatalf("the one-operation frame the operator cases alter is itself invalid: %v", err)
	}
	for name, m := range cases {
		if _, err := decodeCompactGossip(m); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}

	// Byte-flip sweep: single-bit corruption anywhere in a valid frame must
	// never panic (an error or an accidental clean decode are both fine).
	for i := range valid.Data {
		data := bytes.Clone(valid.Data)
		data[i] ^= 0x40
		decodeCompactGossip(CompactGossipMsg{V: valid.V, From: valid.From, Data: data}) //nolint:errcheck
	}
}

// TestCompactGossipCountCannotAmplify pins the decoder's allocation bound:
// a five-byte frame claiming 1<<22 operations must be refused before
// anything is allocated for them (believing the count cost 288 MiB).
func TestCompactGossipCountCannotAmplify(t *testing.T) {
	frame := CompactGossipMsg{V: compactGossipV4, From: 2, Data: binary.AppendUvarint([]byte{0}, 1<<22)}
	if len(frame.Data) != 5 {
		t.Fatalf("frame is %d bytes, want 5", len(frame.Data))
	}
	var err error
	alloc := allocated(func() { _, err = decodeCompactGossip(frame) })
	if err == nil {
		t.Fatal("a frame claiming 1<<22 operations in 5 bytes decoded without error")
	}
	if alloc >= 1<<20 {
		t.Fatalf("decoding a 5-byte frame allocated %d bytes", alloc)
	}
}

// mustEncodeCompact encodes msg as a compact frame, failing the test if
// an operator has no wire form.
func mustEncodeCompact(t testing.TB, msg GossipMsg) CompactGossipMsg {
	t.Helper()
	m, err := encodeCompactGossip(msg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustAppendValue(t testing.TB, v dtype.Value) []byte {
	t.Helper()
	b, err := dtype.AppendValue(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// negotiatingSim is a SimNet that claims every node negotiated the
// compact gossip form.
type negotiatingSim struct{ *transport.SimNet }

func (negotiatingSim) AnnounceFeatures(transport.NodeID, uint32) {}

func (negotiatingSim) PeerFeatures(transport.NodeID) uint32 {
	return transport.FeatureCompactGossip
}

// unwiredCounter is a counter whose increments are operators with no wire
// form (unwired).
type unwiredCounter struct{ dtype.Counter }

func (c unwiredCounter) Apply(s dtype.State, op dtype.Operator) (dtype.State, dtype.Value) {
	if u, ok := op.(unwired); ok {
		return s.(int64) + int64(u.N), "ok"
	}
	return c.Counter.Apply(s, op)
}

// TestCompactGossipFallsBackWithoutWireForm runs a cluster whose peers all
// negotiated the compact form on a data type whose operators have no wire
// form: each delta carrying one goes as plain GossipMsg (counted as a
// fallback), and a strict read still sees the whole history.
func TestCompactGossipFallsBackWithoutWireForm(t *testing.T) {
	s := sim.New(1)
	net := negotiatingSim{transport.NewSimNet(s, transport.SimNetConfig{})}
	c := NewCluster(ClusterConfig{Replicas: 3, DataType: unwiredCounter{}, Network: net, Options: DefaultOptions()})
	fe := c.FrontEnd("c")
	for i := 0; i < 6; i++ {
		fe.Submit(unwired{N: 2}, nil, false, nil)
	}
	var got dtype.Value
	fe.Submit(dtype.CtrRead{}, nil, true, func(r Response) { got = r.Value })
	for i := 0; i < 20 && got == nil; i++ {
		s.Run(0)
		c.GossipAll()
	}
	s.Run(0)
	if got != int64(12) {
		t.Fatalf("strict read = %v, want 12", got)
	}
	var m ReplicaMetrics
	for i := 0; i < 3; i++ {
		m.Add(c.Replica(i).Metrics())
	}
	if m.CompactGossipFallbacks == 0 || m.CompactGossipReceived == 0 || m.CompactGossipRejects != 0 {
		t.Fatalf("fallbacks %d, compact received %d, rejects %d: want fallbacks for the unwired deltas and compact frames for the rest",
			m.CompactGossipFallbacks, m.CompactGossipReceived, m.CompactGossipRejects)
	}
}
