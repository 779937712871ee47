package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// compactTestFrame builds a representative frame exercising every field
// the codec carries — R with operators, prev sets and strict flags, D and S
// runs, L with proper and ∞ labels and an id labelled twice (as a delta
// lists a label lowered twice), the header, and repeated client strings so
// interning has work to do.
func compactTestFrame() GossipMsg {
	idA1 := ops.ID{Client: "client-alpha", Seq: 1}
	idA2 := ops.ID{Client: "client-alpha", Seq: 2}
	idB1 := ops.ID{Client: "client-beta", Seq: 1}
	opA1 := ops.New(dtype.CtrAdd{N: 3}, idA1, nil, false)
	opA2 := ops.New(dtype.CtrAdd{N: 5}, idA2, []ops.ID{idA1}, true)
	opB1 := ops.New(dtype.CtrRead{}, idB1, []ops.ID{idA1, idA2}, false)
	return withRuns(GossipMsg{
		From:  2,
		R:     []ops.Operation{opA1, opA2, opB1},
		Epoch: 1 << 40, Base: 1<<40 + 17, Seq: 1<<40 + 29, Ack: 5,
	}, []ops.ID{idA1, idA2, idB1}, []idLabel{
		{idA1, label.Make(100, 0)},
		{idA2, label.Make(107, 2)},
		{idB1, label.Infinity}, // ∞ sentinel must survive the delta form
		{idB1, label.Make(113, 1)},
	}, []ops.ID{idA1})
}

// idLabel is one identifier and its label, before runs are formed.
type idLabel struct {
	id ops.ID
	l  label.Label
}

// withRuns returns g with D, L and S formed from per-identifier lists:
// each stretch of one client's consecutive sequence numbers (in L,
// labelled in sequence by one replica) is one run, and Clients names each
// client once.
func withRuns(g GossipMsg, d []ops.ID, l []idLabel, s []ops.ID) GossipMsg {
	g.Clients, g.D, g.L, g.S = nil, nil, nil, nil
	client := func(c string) uint32 {
		i := slices.Index(g.Clients, c)
		if i < 0 {
			g.Clients, i = append(g.Clients, c), len(g.Clients)
		}
		return uint32(i)
	}
	// continues reports whether id is the next identifier of the run u.
	continues := func(u IDRun, id ops.ID) bool {
		return g.Clients[u.Client] == id.Client && u.Seq+uint64(u.N) == id.Seq && id.Seq != 0
	}
	runs := func(ids []ops.ID) []IDRun {
		var out []IDRun
		for _, id := range ids {
			if i := len(out) - 1; i >= 0 && continues(out[i], id) {
				out[i].N++
			} else {
				out = append(out, IDRun{Seq: id.Seq, Client: client(id.Client), N: 1})
			}
		}
		return out
	}
	g.D, g.S = runs(d), runs(s)
	for _, x := range l {
		if i := len(g.L) - 1; i >= 0 && continues(g.L[i].IDRun, x.id) && !x.l.IsInf() && !g.L[i].Label.IsInf() &&
			g.L[i].Label.Replica == x.l.Replica && g.L[i].Label.Seq+uint64(g.L[i].N) == x.l.Seq && x.l.Seq != 0 {
			g.L[i].N++
		} else {
			g.L = append(g.L, LabelRun{IDRun: IDRun{Seq: x.id.Seq, Client: client(x.id.Client), N: 1}, Label: x.l})
		}
	}
	return g
}

// perID returns g with every run split into runs of one identifier: the
// per-identifier form gossip had before runs.
func perID(g GossipMsg) GossipMsg {
	split := func(us []IDRun) []IDRun {
		var out []IDRun
		for _, u := range us {
			for k := range u.N {
				out = append(out, IDRun{Seq: u.Seq + uint64(k), Client: u.Client, N: 1})
			}
		}
		return out
	}
	out := g
	out.D, out.S, out.L = split(g.D), split(g.S), nil
	for _, u := range g.L {
		out.L = append(out.L, LabelRun{IDRun: IDRun{Seq: u.Seq, Client: u.Client, N: 1}, Label: u.Label})
		for k := uint64(1); k < uint64(u.N); k++ {
			out.L = append(out.L, LabelRun{IDRun: IDRun{Seq: u.Seq + k, Client: u.Client, N: 1},
				Label: label.Make(u.Label.Seq+k, u.Label.Replica)})
		}
	}
	return out
}

// frameIDs is the number of identifiers a frame names: its descriptors and
// its runs' identifiers.
func frameIDs(g GossipMsg) uint64 {
	n := uint64(len(g.R))
	for _, u := range g.D {
		n += uint64(u.N)
	}
	for _, u := range g.L {
		n += uint64(u.N)
	}
	for _, u := range g.S {
		n += uint64(u.N)
	}
	return n
}

// runFrames are frames of the shapes runs take: one client's dense
// sequence numbers, strided ones, one identifier from each of many
// clients, a dense stretch whose labels change replica, and ∞ labels.
// Each carries the descriptors of its identifiers, D, L and the first
// half of D as S.
func runFrames() map[string]GossipMsg {
	frame := func(ids []ops.ID, lab func(i int) label.Label) GossipMsg {
		g := GossipMsg{From: 1}
		var ls []idLabel
		for i, id := range ids {
			g.R = append(g.R, ops.New(dtype.CtrAdd{N: int64(i + 1)}, id, nil, i%5 == 0))
			ls = append(ls, idLabel{id, lab(i)})
		}
		return withRuns(g, ids, ls, ids[:len(ids)/2])
	}
	ids := func(n int, id func(i int) ops.ID) []ops.ID {
		out := make([]ops.ID, n)
		for i := range out {
			out[i] = id(i)
		}
		return out
	}
	dense := ids(64, func(i int) ops.ID { return ops.ID{Client: "dense", Seq: uint64(100 + i)} })
	inSequence := func(i int) label.Label { return label.Make(uint64(1000+i), 1) }
	withInf := frame(dense[:8], func(i int) label.Label {
		if i == 2 || i == 3 {
			return label.Infinity
		}
		return inSequence(i)
	})
	return map[string]GossipMsg{
		"dense":   frame(dense, inSequence),
		"strided": frame(ids(64, func(i int) ops.ID { return ops.ID{Client: "strided", Seq: uint64(3 * i)} }), inSequence),
		"lone":    frame(ids(64, func(i int) ops.ID { return ops.ID{Client: fmt.Sprintf("c%d", i), Seq: 7} }), inSequence),
		"replica-broken": frame(dense, func(i int) label.Label {
			return label.Make(uint64(1000+i), label.ReplicaID(int32(i/16%3)))
		}),
		"infinity": withInf,
		"mixed":    compactTestFrame(),
	}
}

// TestCompactGossipMergesAsItsIdentifiers encodes and decodes each of the
// run frames and merges the result into a fresh replica. It must leave
// the same records — labels, done and stable sets, flags and descriptors —
// and the same local order as merging the frame's per-identifier
// expansion. Each compact frame must also encode smaller than the plain
// frame it replaces, the reason the codec exists.
func TestCompactGossipMergesAsItsIdentifiers(t *testing.T) {
	RegisterWire()
	frames := runFrames()
	if g := frames["dense"]; len(g.D) != 1 || len(g.L) != 1 || len(g.S) != 1 || len(frames["replica-broken"].L) != 4 {
		t.Fatalf("the dense frames are not runs: D %v, L %v, S %v", g.D, g.L, g.S)
	}
	for name, g := range frames {
		t.Run(name, func(t *testing.T) {
			cm := mustEncodeCompact(t, stamped(g))
			if cm.V != compactGossipV5 {
				t.Fatalf("frame version %d, want %d", cm.V, compactGossipV5)
			}
			decoded, err := decodeCompactGossip(cm)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			got, want := mergedRecords(t, decoded), mergedRecords(t, perID(g))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merging the decoded frame left\n%+v\nmerging its identifiers one by one left\n%+v", got, want)
			}
			if compact, plain := streamed(t, cm), streamed(t, stamped(g)); compact >= plain {
				t.Fatalf("compact frame %dB not smaller than the plain frame's %dB", compact, plain)
			}
		})
	}
}

// TestCompactGossipRoundTrip encodes a frame and requires the decode to
// reproduce it exactly — header, client table and runs — and the compact
// frame to encode smaller than the plain frame it replaces.
func TestCompactGossipRoundTrip(t *testing.T) {
	RegisterWire()
	msg := compactTestFrame()
	cm := mustEncodeCompact(t, msg)
	if cm.V != compactGossipV5 || cm.From != 2 {
		t.Fatalf("frame header V=%d From=%d, want V=%d From=2", cm.V, cm.From, compactGossipV5)
	}
	got, err := decodeCompactGossip(cm)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, msg)
	}
	if compact, plain := streamed(t, cm), streamed(t, msg); compact >= plain {
		t.Fatalf("compact frame %dB not smaller than the plain frame's %dB", compact, plain)
	}
}

// TestCompactGossipRoundTripSingle covers the smallest frames: one
// operation with its label, and the acknowledgement-only frame with no
// content at all.
func TestCompactGossipRoundTripSingle(t *testing.T) {
	RegisterWire()
	full := compactTestFrame()
	// The descriptor and the label are two identifiers, so the log range
	// Base..Seq spans two entries.
	one := withRuns(GossipMsg{From: 2, R: full.R[:1], Epoch: 3, Base: 4, Seq: 6},
		nil, []idLabel{{full.R[0].ID, label.Make(100, 0)}}, nil)
	for _, msg := range []GossipMsg{one, {From: 1, Ack: 9}} {
		got, err := decodeCompactGossip(mustEncodeCompact(t, msg))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, msg)
		}
	}
}

// stamped gives g a header whose log range holds its identifiers.
func stamped(g GossipMsg) GossipMsg {
	g.Epoch, g.Base, g.Seq = 1<<40, 1<<40+3, 1<<40+3+frameIDs(g)
	return g
}

// streamed is the size of v on the wire TCPNet runs: a connection's gob
// stream that has already carried v's type once, so the frame pays no
// type definitions.
func streamed(t *testing.T, v any) int {
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

// recordView is what a replica holds about one identifier.
type recordView struct {
	Label         label.Label
	Done, Stable  uint64
	Flags         recFlag
	Descriptor    ops.Operation
	HasDescriptor bool
}

// mergedRecords merges g, from replica 1, into replica 0 of a fresh
// three-replica cluster and returns replica 0's records and snapshot.
func mergedRecords(t *testing.T, g GossipMsg) any {
	t.Helper()
	s := sim.New(1)
	c := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{},
		Network: transport.NewSimNet(s, transport.SimNetConfig{})})
	r0 := c.Replica(0)
	g.From = 1
	r0.handleMessage(transport.Message{Payload: nextFrame(r0, g)})
	s.Run(0)
	if m := r0.Metrics(); m.GossipHeaderRejects != 0 {
		t.Fatalf("the frame was rejected")
	}
	r0.mu.Lock()
	recs := make(map[ops.ID]recordView)
	for e := range r0.ids.all() {
		x, ok := r0.ids.descriptor(e)
		recs[r0.ids.id(e)] = recordView{Label: e.label(), Done: e.done, Stable: e.stable, Flags: e.flags, Descriptor: x, HasDescriptor: ok}
	}
	r0.mu.Unlock()
	return struct {
		Records  map[ops.ID]recordView
		Snapshot DebugSnapshot
	}{recs, r0.Snapshot()}
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
	// No clients, one operation in R (client ref 0 introducing "x", seq 1,
	// flags 0, no prev, the operator under test) and empty D, L and S.
	oneOp := func(op ...byte) []byte {
		b := append(uv(0, 0, 1, 0, 1), 'x')
		b = append(append(b, uv(1, 0, 0)...), op...)
		return append(b, uv(0, 0, 0)...)
	}
	ctrRead, err := dtype.AppendOperator(nil, dtype.CtrRead{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]CompactGossipMsg{
		"unknown version":      {V: compactGossipV5 + 1, From: 2, Data: valid.Data},
		"version 1":            {V: 1, From: 2, Data: valid.Data},
		"version 2":            {V: 2, From: 2, Data: valid.Data},
		"version 3":            {V: 3, From: 2, Data: valid.Data},
		"version 4":            {V: 4, From: 2, Data: valid.Data},
		"trailing bytes":       {V: compactGossipV5, From: 2, Data: append(bytes.Clone(valid.Data), 0)},
		"count past the frame": {V: compactGossipV5, From: 2, Data: uv(0, 3, 1)},
		"client ref past the strings introduced": {V: compactGossipV5, From: 2, Seq: 9,
			// no clients, one R id with client ref 3 before any string
			Data: uv(0, 0, 1, 3, 9, 0, 0, 0, 0, 0)},
		"unknown operator tag":       {V: compactGossipV5, From: 2, Seq: 1, Data: oneOp(0xff)},
		"value where an operator is": {V: compactGossipV5, From: 2, Seq: 1, Data: oneOp(mustAppendValue(t, "ok")...)},
		"unknown descriptor flag":    {V: compactGossipV5, From: 2, Seq: 1, Data: bytes.Replace(oneOp(ctrRead...), []byte{'x', 1, 0}, []byte{'x', 1, 2}, 1)},
		// client "x", one L run: client 0, seq 1, N−1 = 0, flag 2
		"unknown label flag": {V: compactGossipV5, From: 2, Seq: 1, Data: append(uv(0, 1, 1), 'x', 0, 0, 1, 0, 1, 0, 2, 0)},
		// client "a", no R, one D run of client 0 from seq 1 whose N−1 is
		// 2^32−1: N does not fit.
		"run of 2^32 identifiers": {V: compactGossipV5, From: 2, Seq: 1 << 40,
			Data: append(binary.AppendUvarint([]byte{0, 1, 1, 'a', 0, 1, 0, 1}, math.MaxUint32), 0, 0)},
	}
	if _, err := decodeCompactGossip(CompactGossipMsg{V: compactGossipV5, From: 2, Seq: 1, Data: oneOp(ctrRead...)}); err != nil {
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
	frame := CompactGossipMsg{V: compactGossipV5, From: 2, Data: binary.AppendUvarint([]byte{0}, 1<<22)}
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
