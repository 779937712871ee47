package core

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// This file is the wire-registration companion to transport.TCPNet: the
// transport carries Message.Payload as an interface value, and encoding/gob
// refuses to transmit an interface whose concrete type it has not been told
// about. SimNet and LiveNet pass payloads by reference in-process, so the
// seed never needed this; every process of a TCP cluster must call
// RegisterWire before sending or receiving.

var wireOnce sync.Once

// RegisterWire registers the core message set (𝓜_req, 𝓜_resp, 𝓜_gossip,
// the range catch-up pair that carries all state transfer, and the resize
// control messages — 13 types) and the built-in data type operators with
// encoding/gob. It is idempotent; cmd/esds-server and every test that opens
// a TCPNet call it once at startup.
func RegisterWire() {
	wireOnce.Do(func() {
		gob.Register(RequestMsg{})
		gob.Register(ResponseMsg{})
		gob.Register(GossipMsg{})
		gob.Register(BatchRequestMsg{})
		gob.Register(BatchResponseMsg{})
		gob.Register(CompactGossipMsg{})
		gob.Register(RangeRequestMsg{})
		gob.Register(RangeResponseMsg{})
		gob.Register(FreezeKeysMsg{})
		gob.Register(FreezeAckMsg{})
		gob.Register(KeyMigratedMsg{})
		gob.Register(ResizeCompleteMsg{})
		gob.Register(ResizeCompleteAckMsg{})
		dtype.RegisterWire()
	})
}

// --- hot frames: requests, responses and their batches ---
//
// RequestMsg, BatchRequestMsg, ResponseMsg and BatchResponseMsg encode
// themselves (encoding.BinaryMarshaler, which gob honours), so gob carries
// each frame as one opaque byte slice instead of walking its operations,
// operators and values by reflection. The layouts:
//
//	RequestMsg:       op
//	BatchRequestMsg:  uvarint n, op...
//	ResponseMsg:      resp
//	BatchResponseMsg: uvarint n, resp...
//
//	op:   id, flag byte (bit0 strict), uvarint nPrev, id...,
//	      operator (dtype wire form)
//	resp: id, flag byte (bit0 redirect), value (dtype wire form), and
//	      with a redirect: varint From, Epoch, Shards, flag byte (bit0
//	      Final, bit1 HasInstall), id InstallID, varint Members
//	id:   uvarint client ref, the client string (uvarint length, bytes)
//	      when the ref is new, uvarint Seq
//
// Client strings are interned per frame: a ref below the number of
// strings the frame has introduced names one of them, a ref equal to it
// introduces the next one inline, and a larger ref is refused. A batch
// from one front end so names its client once. The compact gossip codec
// (gossipcodec.go) writes its ids and descriptors the same way. Decoding
// is strict: a truncated or overlong frame, a count larger than the bytes
// left, an unknown tag or flag bit rejects the frame, and the transport
// closes the connection that carried it. An operator or value with no
// wire form (dtype.AppendOperator) fails MarshalBinary, and the transport
// drops the frame.

// MarshalBinary implements encoding.BinaryMarshaler.
func (m RequestMsg) MarshalBinary() ([]byte, error) {
	var e frameEncoder
	if err := e.op(m.Op); err != nil {
		return nil, err
	}
	return e.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *RequestMsg) UnmarshalBinary(data []byte) error {
	d := newFrameDecoder(data)
	x := d.op()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: request frame: %w", err)
	}
	*m = RequestMsg{Op: x}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m BatchRequestMsg) MarshalBinary() ([]byte, error) {
	e := frameEncoder{b: binary.AppendUvarint(make([]byte, 0, 16+16*len(m.Ops)), uint64(len(m.Ops)))}
	for _, x := range m.Ops {
		if err := e.op(x); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *BatchRequestMsg) UnmarshalBinary(data []byte) error {
	d := newFrameDecoder(data)
	var xs []ops.Operation
	if n := d.Count("request"); n > 0 {
		xs = make([]ops.Operation, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			xs = append(xs, d.op())
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: request batch frame: %w", err)
	}
	*m = BatchRequestMsg{Ops: xs}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m ResponseMsg) MarshalBinary() ([]byte, error) {
	var e frameEncoder
	if err := e.resp(m); err != nil {
		return nil, err
	}
	return e.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *ResponseMsg) UnmarshalBinary(data []byte) error {
	d := newFrameDecoder(data)
	resp := d.resp()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: response frame: %w", err)
	}
	*m = resp
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m BatchResponseMsg) MarshalBinary() ([]byte, error) {
	e := frameEncoder{b: binary.AppendUvarint(make([]byte, 0, 16+8*len(m.Resps)), uint64(len(m.Resps)))}
	for _, resp := range m.Resps {
		if err := e.resp(resp); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *BatchResponseMsg) UnmarshalBinary(data []byte) error {
	d := newFrameDecoder(data)
	var resps []ResponseMsg
	if n := d.Count("response"); n > 0 {
		resps = make([]ResponseMsg, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			resps = append(resps, d.resp())
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: response batch frame: %w", err)
	}
	*m = BatchResponseMsg{Resps: resps}
	return nil
}

// frameEncoder appends one frame in the hot frames' form: the bytes so
// far, the refs of the client strings the frame has introduced and their
// number. last is the client written last and lastRef its ref: ids come
// in runs of one client.
type frameEncoder struct {
	b       []byte
	refs    map[string]uint64
	n       uint64
	last    string
	lastRef uint64
}

func (e *frameEncoder) id(id ops.ID) {
	ref, known := e.lastRef, e.refs != nil && id.Client == e.last
	if !known {
		if ref, known = e.refs[id.Client]; !known {
			ref = e.introduce(id.Client)
		}
		e.last, e.lastRef = id.Client, ref
	}
	e.b = binary.AppendUvarint(e.b, ref)
	if !known {
		e.b = dtype.AppendString(e.b, id.Client)
	}
	e.b = binary.AppendUvarint(e.b, id.Seq)
}

// introduce gives client the next ref; the caller writes the string.
func (e *frameEncoder) introduce(client string) uint64 {
	if e.refs == nil {
		e.refs = make(map[string]uint64)
	}
	ref := e.n
	e.refs[client], e.n = ref, e.n+1
	e.last, e.lastRef = client, ref
	return ref
}

func (e *frameEncoder) op(x ops.Operation) error {
	e.id(x.ID)
	var flags byte
	if x.Strict {
		flags |= 1
	}
	e.b = binary.AppendUvarint(append(e.b, flags), uint64(len(x.Prev)))
	for _, p := range x.Prev {
		e.id(p)
	}
	var err error
	e.b, err = dtype.AppendOperator(e.b, x.Op)
	return err
}

func (e *frameEncoder) resp(m ResponseMsg) error {
	e.id(m.ID)
	var flags byte
	if m.Redirect != nil {
		flags |= 1
	}
	var err error
	if e.b, err = dtype.AppendValue(append(e.b, flags), m.Value); err != nil {
		return err
	}
	if rd := m.Redirect; rd != nil {
		e.b = binary.AppendVarint(e.b, int64(rd.From))
		e.b = binary.AppendVarint(e.b, int64(rd.Epoch))
		e.b = binary.AppendVarint(e.b, int64(rd.Shards))
		flags = 0
		if rd.Final {
			flags |= 1
		}
		if rd.HasInstall {
			flags |= 2
		}
		e.b = append(e.b, flags)
		e.id(rd.InstallID)
		e.b = binary.AppendVarint(e.b, int64(rd.Members))
	}
	return nil
}

// frameDecoder reads a frame frameEncoder wrote, through dtype's strict
// reader: the first violation latches, and Finish reports it.
type frameDecoder struct {
	dtype.WireReader
	strs []string
}

func newFrameDecoder(data []byte) frameDecoder {
	return frameDecoder{WireReader: dtype.NewWireReader(data)}
}

func (d *frameDecoder) id() ops.ID {
	ref := d.Uvarint()
	switch n := uint64(len(d.strs)); {
	case ref == n:
		d.strs = append(d.strs, d.Str())
	case ref > n:
		d.Fail("client ref %d past the %d strings introduced", ref, n)
		return ops.ID{}
	}
	return ops.ID{Client: d.strs[ref], Seq: d.Uvarint()}
}

func (d *frameDecoder) op() ops.Operation {
	id := d.id()
	flags := d.Byte()
	if flags&^1 != 0 {
		d.Fail("operation flags %#x", flags)
	}
	n := d.Count("prev set")
	prev := make([]ops.ID, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		prev = append(prev, d.id())
	}
	op := dtype.ReadOperator(&d.WireReader)
	// ops.New re-normalizes the prev set: a frame from a buggy or hostile
	// peer cannot smuggle in duplicates or self-references the
	// constructors rule out.
	return ops.New(op, id, prev, flags&1 != 0)
}

func (d *frameDecoder) resp() ResponseMsg {
	m := ResponseMsg{ID: d.id()}
	flags := d.Byte()
	if flags&^1 != 0 {
		d.Fail("response flags %#x", flags)
	}
	m.Value = dtype.ReadValue(&d.WireReader)
	if flags&1 != 0 {
		rd := &Redirect{}
		from := d.Varint()
		if from != int64(int32(from)) {
			d.Fail("redirect from replica %d out of range", from)
		}
		rd.From = label.ReplicaID(from)
		rd.Epoch = int(d.Varint())
		rd.Shards = int(d.Varint())
		flags = d.Byte()
		if flags&^3 != 0 {
			d.Fail("redirect flags %#x", flags)
		}
		rd.Final, rd.HasInstall = flags&1 != 0, flags&2 != 0
		rd.InstallID = d.id()
		rd.Members = int(d.Varint())
		m.Redirect = rd
	}
	return m
}
