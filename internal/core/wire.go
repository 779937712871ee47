package core

import (
	"encoding/gob"
	"sync"

	"esds/internal/dtype"
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
// control messages — 14 types) and the built-in data type operators with
// encoding/gob. It is idempotent; cmd/esds-server and every test that opens
// a TCPNet call it once at startup.
func RegisterWire() {
	wireOnce.Do(func() {
		gob.Register(RequestMsg{})
		gob.Register(ResponseMsg{})
		gob.Register(GossipMsg{})
		gob.Register(BatchRequestMsg{})
		gob.Register(BatchResponseMsg{})
		gob.Register(BatchGossipMsg{}) // only received, from older peers
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
