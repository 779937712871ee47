package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzCompactGossip feeds arbitrary payloads to the compact gossip decoder,
// the door through which a TCP peer's gossip bytes reach a replica — decoded
// whether or not the connection negotiated the form. Properties:
//
//   - it never panics;
//   - a frame is either rejected whole, or it decodes to elements whose
//     re-encoding decodes to the same elements;
//   - allocation is O(len(Data)): linear in the frame, plus a constant for
//     gob, which may preallocate up to 10 MiB once per decode for a slice
//     whose length it has not yet checked against its input.
func FuzzCompactGossip(f *testing.F) {
	RegisterWire()
	valid, err := encodeCompactGossip(2, compactTestFrame())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Data) // a multi-element frame: interning, dedup, ∞ labels
	single, err := encodeCompactGossip(2, []GossipMsg{{From: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single.Data)
	for n := 0; n < len(valid.Data); n++ {
		f.Add(bytes.Clone(valid.Data[:n])) // every truncation point
	}
	f.Add(append(bytes.Clone(valid.Data), 0))               // trailing garbage
	f.Add(binary.AppendUvarint([]byte{0, 0}, 1<<22))        // six bytes claiming 1<<22 descriptors
	f.Add(binary.AppendUvarint([]byte{0}, uint64(1)<<62))   // a string table past any frame
	f.Add(append(binary.AppendUvarint(nil, ^uint64(0)), 0)) // base label at the top of the space

	f.Fuzz(func(t *testing.T, data []byte) {
		m := CompactGossipMsg{V: compactGossipV1, From: 2, Data: data}
		var msgs []GossipMsg
		var err error
		alloc := allocated(func() { msgs, err = decodeCompactGossip(m) })
		if budget := uint64(16<<20 + 1024*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), alloc, budget)
		}
		if err != nil {
			if msgs != nil {
				t.Fatalf("rejected frame still returned %d elements (%v)", len(msgs), err)
			}
			return
		}
		again, err := encodeCompactGossip(m.From, msgs)
		if err != nil {
			t.Fatalf("re-encoding decoded elements: %v", err)
		}
		got, err := decodeCompactGossip(again)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(got, msgs) {
			t.Fatalf("round trip changed the elements:\n got %+v\nwant %+v", got, msgs)
		}
	})
}
