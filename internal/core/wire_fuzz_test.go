package core

import (
	"encoding"
	"encoding/binary"
	"reflect"
	"testing"

	"esds/internal/dtype"
	"esds/internal/ops"
)

// hotFrame returns a fresh value of the hot frame type kind selects, the
// four types that encode themselves on the TCP hot path.
func hotFrame(kind uint8) interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
} {
	switch kind % 4 {
	case 0:
		return &RequestMsg{}
	case 1:
		return &BatchRequestMsg{}
	case 2:
		return &ResponseMsg{}
	default:
		return &BatchResponseMsg{}
	}
}

// FuzzHotFrames feeds arbitrary bytes to the decoders of the hot frames —
// requests, responses and their batches — the door through which a TCP
// peer's bytes reach a front end or a replica on every operation.
// Properties:
//
//   - it never panics;
//   - allocation is O(len(data)): linear in the frame;
//   - a frame that decodes re-encodes, and decoding that gives the same
//     message again (decode → encode → decode is a fixpoint).
func FuzzHotFrames(f *testing.F) {
	id := ops.ID{Client: "client-alpha", Seq: 7}
	prev := []ops.ID{{Client: "client-alpha", Seq: 6}, {Client: "client-beta", Seq: 2}}
	add := func(kind uint8, m encoding.BinaryMarshaler) {
		data, err := m.MarshalBinary()
		if err != nil {
			f.Fatalf("seed %#v: %v", m, err)
		}
		f.Add(kind, data)
	}
	// One request per operator kind.
	for _, op := range []dtype.Operator{
		dtype.CtrAdd{N: -3}, dtype.CtrDouble{}, dtype.CtrRead{},
		dtype.RegWrite{Val: "v"}, dtype.RegRead{},
		dtype.SetAdd{Elem: "e"}, dtype.SetRemove{Elem: "e"}, dtype.SetContains{Elem: "e"}, dtype.SetSize{},
		dtype.DirBind{Name: "n"}, dtype.DirUnbind{Name: "n"}, dtype.DirSetAttr{Name: "n", Key: "k", Val: "v"},
		dtype.DirGetAttr{Name: "n", Key: "k"}, dtype.DirLookup{Name: "n"}, dtype.DirList{},
		dtype.LogAppend{Entry: "x"}, dtype.LogRead{}, dtype.LogLen{},
		dtype.BankDeposit{Account: "a", Amount: 5}, dtype.BankWithdraw{Account: "a", Amount: 2}, dtype.BankBalance{Account: "a"},
		dtype.KeyedOp{Key: "obj", Op: dtype.CtrAdd{N: 1}},
		dtype.KeyInstall{Key: "obj", State: []byte{0, 0, 0, 0, 0, 0, 0, 9}, Subsumes: []dtype.OpRef{{Client: "client-beta", Seq: 1}}},
	} {
		add(0, RequestMsg{Op: ops.New(op, id, prev, true)})
	}
	// One response per value kind, and a redirect.
	for _, v := range []dtype.Value{nil, "ok", int64(-9), 4, false, true, []string{"a", "b"}} {
		add(2, ResponseMsg{ID: id, Value: v})
	}
	add(2, ResponseMsg{ID: id, Redirect: &Redirect{From: 2, Epoch: 3, Shards: 8, Final: true, HasInstall: true, InstallID: prev[1], Members: 4}})
	add(1, manyClientBatch())
	add(1, BatchRequestMsg{})
	add(3, BatchResponseMsg{Resps: []ResponseMsg{
		{ID: id, Value: "ok"}, {ID: prev[0], Value: "ok"}, {ID: prev[1], Value: int64(3)},
		{ID: id, Redirect: &Redirect{From: 1, Shards: 2}},
	}})
	add(3, BatchResponseMsg{})
	// Five bytes claiming 1<<22 requests, and a request whose prev set
	// claims more ids than there are bytes.
	f.Add(uint8(1), binary.AppendUvarint(nil, 1<<22))
	f.Add(uint8(0), append([]byte{0, 1, 'c', 1, 0}, binary.AppendUvarint(nil, 1<<40)...))

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		m := hotFrame(kind)
		var err error
		alloc := allocated(func() {
			m = hotFrame(kind)
			err = m.UnmarshalBinary(data)
		})
		if budget := uint64(1<<20 + 1024*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), alloc, budget)
		}
		if err != nil {
			return
		}
		again, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", m, err)
		}
		m2 := hotFrame(kind)
		if err := m2.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded %#v rejected: %v", m, err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("round trip changed the frame:\n got %#v\nwant %#v", m2, m)
		}
	})
}
