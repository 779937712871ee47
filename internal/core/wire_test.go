package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// roundTrip encodes payload as an interface value (exactly how TCPNet
// carries it) and decodes it back.
func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	type frame struct{ Payload any }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(frame{Payload: payload}); err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	var out frame
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode %T: %v", payload, err)
	}
	return out.Payload
}

// TestWireRoundTrip pushes each core message type through the gob codec
// and checks structural equality — the property TCPNet depends on.
func TestWireRoundTrip(t *testing.T) {
	RegisterWire()
	id1 := ops.ID{Client: "alice", Seq: 1}
	id2 := ops.ID{Client: "bob", Seq: 7}
	msgs := []any{
		RequestMsg{Op: ops.New(dtype.CtrAdd{N: 5}, id1, []ops.ID{id2}, true)},
		ResponseMsg{ID: id1, Value: int64(42)},
		ResponseMsg{ID: id2, Value: "ok"},
		ResponseMsg{ID: id2, Value: []string{"a", "b"}},
		GossipMsg{
			From: 2,
			// Prev sets are non-empty here because gob canonicalizes an
			// empty slice to nil, which DeepEqual distinguishes; the
			// algorithm only ever iterates Prev, so nil and empty are
			// interchangeable on the receiving side.
			R: []ops.Operation{
				ops.New(dtype.RegWrite{Val: "x"}, id1, []ops.ID{id2}, false),
				ops.New(dtype.SetAdd{Elem: "e"}, id2, []ops.ID{id1}, false),
			},
			Clients: []string{id1.Client, id2.Client},
			D:       []IDRun{{Seq: id1.Seq, N: 3}},
			L: []LabelRun{
				{IDRun: IDRun{Seq: id1.Seq, N: 1}, Label: label.Make(3, 1)},
				{IDRun: IDRun{Seq: id2.Seq, Client: 1, N: 2}, Label: label.Make(9, 0)},
			},
			S: []IDRun{{Seq: id2.Seq, Client: 1, N: 1}},
		},
		BatchRequestMsg{Ops: []ops.Operation{
			ops.New(dtype.CtrAdd{N: 1}, id1, []ops.ID{id2}, false),
			ops.New(dtype.CtrRead{}, id2, []ops.ID{id1}, true),
		}},
		BatchResponseMsg{Resps: []ResponseMsg{
			{ID: id1, Value: int64(3)},
			{ID: id2, Value: "ok", Redirect: &Redirect{From: 1, Epoch: 2, Shards: 4, Final: true}},
		}},
		ResponseMsg{ID: id1, Value: 7, Redirect: &Redirect{From: -3, Epoch: 9, Shards: 8, HasInstall: true, InstallID: id2, Members: 5}},
		RequestMsg{Op: ops.New(dtype.KeyInstall{Key: "k", State: []byte{1, 2}, Subsumes: []dtype.OpRef{{Client: "c", Seq: 4}}}, id1, []ops.ID{id2}, false)},
		// More clients than the encoder's linear intern scan covers.
		manyClientBatch(),
		RangeRequestMsg{From: 1, Have: 3, Nonce: 7},
		RangeResponseMsg{
			From:   2,
			Nonce:  7,
			Offset: 3,
			Ops: []SnapOp{
				{ID: id1, Label: label.Make(1, 0), Value: 1, Stable: true, Strict: true},
				{ID: id2, Label: label.Make(4, 2), Value: 2, Key: "k"},
			},
		},
		RangeResponseMsg{
			From:      2,
			Nonce:     7,
			Offset:    5,
			Done:      true,
			DataType:  "log",
			Total:     5,
			HasState:  true,
			State:     []byte("\x01a\x01b"), // the log a, b
			Watermark: 9,
			Resizes:   []ResizeRecord{{Epoch: 1, OldShards: 1, NewShards: 2, Migrated: []MigratedKey{{Key: "k", HasInstall: true, InstallID: id1}}}},
			Tail:      withRuns(GossipMsg{From: 2}, []ops.ID{id1}, []idLabel{{id1, label.Make(6, 2)}}, nil),
		},
	}
	for _, msg := range msgs {
		got := roundTrip(t, msg)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip of %T:\n got %#v\nwant %#v", msg, got, msg)
		}
	}
}

// TestWireLabelInfinity checks that the ∞ sentinel survives the codec:
// gob alone would drop the unexported flag and decode ∞ as the proper
// label (0, 0), silently corrupting the label order.
func TestWireLabelInfinity(t *testing.T) {
	RegisterWire()
	type carrier struct{ L label.Label }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(carrier{L: label.Infinity}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out carrier
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.L.IsInf() {
		t.Fatalf("∞ decoded as %v", out.L)
	}
	proper := label.Make(5, 2)
	if got := roundTrip(t, withRuns(GossipMsg{}, nil, []idLabel{{ops.ID{Client: "c", Seq: 1}, proper}}, nil)).(GossipMsg); got.L[0].Label != proper {
		t.Fatalf("proper label decoded as %v", got.L)
	}
}

// manyClientBatch is a request batch naming a dozen clients, each op with
// the previous two ids in its prev set.
func manyClientBatch() BatchRequestMsg {
	var m BatchRequestMsg
	for i := 0; i < 12; i++ {
		id := ops.ID{Client: fmt.Sprintf("client-%02d", i), Seq: uint64(i + 1)}
		var prev []ops.ID
		for _, x := range m.Ops[max(0, i-2):] {
			prev = append(prev, x.ID)
		}
		prev = append(prev, id) // a self-reference ops.New drops
		m.Ops = append(m.Ops, ops.New(dtype.SetAdd{Elem: id.Client}, id, prev, i%3 == 0))
	}
	return m
}

// unwired is an operator and a value with no wire form.
type unwired struct{ N int }

// TestTCPDropsFrameWithoutWireForm sends a TCP peer frames holding an
// operator or a value that has no wire form, each followed by an
// encodable frame: the sender drops the first (counted in Stats.Dropped)
// and resets the connection, and the second arrives.
func TestTCPDropsFrameWithoutWireForm(t *testing.T) {
	RegisterWire()
	dst, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	got := make(chan any, 8)
	dst.Register("dst", func(m transport.Message) { got <- m.Payload })
	dst.Start()
	src, err := transport.NewTCPNet(transport.TCPConfig{
		Listen: "127.0.0.1:0", Logf: t.Logf, RedialBackoff: time.Millisecond,
		Peers: map[transport.NodeID]string{"dst": dst.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Start()

	id := ops.ID{Client: "c", Seq: 1}
	for i, bad := range []any{
		RequestMsg{Op: ops.New(unwired{1}, id, nil, false)},
		BatchResponseMsg{Resps: []ResponseMsg{{ID: id, Value: "ok"}, {ID: id, Value: unwired{2}}}},
	} {
		good := ResponseMsg{ID: ops.ID{Client: "c", Seq: uint64(i + 2)}, Value: int64(i)}
		src.Send("src", "dst", bad)
		src.Send("src", "dst", good)
		select {
		case p := <-got:
			if !reflect.DeepEqual(p, good) {
				t.Fatalf("delivered %#v, want %#v", p, good)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("the frame after an unencodable %T never arrived (stats %+v)", bad, src.Stats())
		}
		if d := src.Stats().Dropped; d != uint64(i+1) {
			t.Fatalf("after %d unencodable frames Dropped = %d", i+1, d)
		}
	}
}

// TestTCPRetransmitsOperatorWithoutWireForm pins what a front end does
// with an operation whose operator has no wire form: it stays pending and
// unanswered, every retransmission costs one dropped frame (and the reset
// of the process's connection to that replica), and another client's
// next request through the same connection still arrives.
func TestTCPRetransmitsOperatorWithoutWireForm(t *testing.T) {
	RegisterWire()
	dst, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	replica := ReplicaNode(0)
	got := make(chan ops.Operation, 8)
	dst.Register(replica, func(m transport.Message) { got <- m.Payload.(RequestMsg).Op })
	dst.Start()
	src, err := transport.NewTCPNet(transport.TCPConfig{
		Listen: "127.0.0.1:0", Logf: t.Logf, RedialBackoff: time.Millisecond,
		Peers: map[transport.NodeID]string{replica: dst.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	bad := NewFrontEnd(FrontEndConfig{Client: "bad", Replicas: []transport.NodeID{replica}, Network: src})
	good := NewFrontEnd(FrontEndConfig{Client: "good", Replicas: []transport.NodeID{replica}, Network: src})
	src.Start()

	answered := make(chan Response, 1)
	bad.Submit(unwired{1}, nil, false, func(r Response) { answered <- r })
	for round := 1; round <= 3; round++ {
		if round > 1 {
			if n := bad.Retransmit(); n != 1 {
				t.Fatalf("round %d: Retransmit re-sent %d operations, want 1", round, n)
			}
		}
		x := good.Submit(dtype.CtrAdd{N: int64(round)}, nil, false, nil)
		select {
		case op := <-got:
			if op.ID != x.ID {
				t.Fatalf("round %d: replica got %v, want %v", round, op.ID, x.ID)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the other client's request never arrived (stats %+v)", round, src.Stats())
		}
		if d := src.Stats().Dropped; d != uint64(round) {
			t.Fatalf("after %d sends of the unencodable request Dropped = %d", round, d)
		}
	}
	select {
	case r := <-answered:
		t.Fatalf("the unencodable operation was answered: %+v", r)
	default:
	}
	if n := bad.Pending(); n != 1 {
		t.Fatalf("%d operations pending at the bad client, want 1", n)
	}
}
