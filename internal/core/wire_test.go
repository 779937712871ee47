package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
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
			D: []ops.ID{id1},
			L: map[ops.ID]label.Label{
				id1: label.Make(3, 1),
				id2: label.Make(9, 0),
			},
			S: []ops.ID{id2},
		},
		BatchRequestMsg{Ops: []ops.Operation{
			ops.New(dtype.CtrAdd{N: 1}, id1, []ops.ID{id2}, false),
			ops.New(dtype.CtrRead{}, id2, []ops.ID{id1}, true),
		}},
		BatchResponseMsg{Resps: []ResponseMsg{
			{ID: id1, Value: int64(3)},
			{ID: id2, Value: "ok", Redirect: &Redirect{From: 1, Epoch: 2, Shards: 4, Final: true}},
		}},
		BatchGossipMsg{From: 1, Msgs: []GossipMsg{
			{From: 1, D: []ops.ID{id1}, L: map[ops.ID]label.Label{id1: label.Make(2, 1)}},
			{From: 1, R: []ops.Operation{ops.New(dtype.CtrAdd{N: 9}, id2, []ops.ID{id1}, false)},
				S: []ops.ID{id1}},
		}},
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
			State:     []byte("a|b"),
			Watermark: 9,
			Resizes:   []ResizeRecord{{Epoch: 1, OldShards: 1, NewShards: 2, Migrated: []MigratedKey{{Key: "k", HasInstall: true, InstallID: id1}}}},
			Tail:      GossipMsg{From: 2, D: []ops.ID{id1}, L: map[ops.ID]label.Label{id1: label.Make(6, 2)}},
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
	if got := roundTrip(t, GossipMsg{L: map[ops.ID]label.Label{{Client: "c", Seq: 1}: proper}}).(GossipMsg); got.L[ops.ID{Client: "c", Seq: 1}] != proper {
		t.Fatalf("proper label decoded as %v", got.L)
	}
}
