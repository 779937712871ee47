package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// newTCP builds a started TCPNet on loopback with a short redial backoff,
// failing the test on error and closing the net at cleanup.
func newTCP(t *testing.T, peers map[NodeID]string) *TCPNet {
	t.Helper()
	n, err := NewTCPNet(TCPConfig{
		Listen:        "127.0.0.1:0",
		Peers:         peers,
		RedialBackoff: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("NewTCPNet: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

// collector is a thread-safe message sink.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) handle(m Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) last() Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs[len(c.msgs)-1]
}

// dialWire opens a raw connection to n and writes the connection preamble,
// so the bytes a test writes next reach the frame checks.
func dialWire(t *testing.T, n *TCPNet) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(tcpPreamble); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPNetRoundTrip sends a→b over a real socket and b→a over the
// dynamically learned reply address (b has no static entry for a).
func TestTCPNetRoundTrip(t *testing.T) {
	b := newTCP(t, nil)
	a := newTCP(t, map[NodeID]string{"b": b.Addr().String()})
	var gotA, gotB collector
	a.Register("a", gotA.handle)
	b.Register("b", gotB.handle)
	a.Start()
	b.Start()

	a.Send("a", "b", "ping")
	waitUntil(t, "b to receive ping", func() bool { return gotB.count() == 1 })
	if m := gotB.last(); m.From != "a" || m.To != "b" || m.Payload != "ping" {
		t.Fatalf("b received %+v", m)
	}

	// b learned a's address from the frame; the response needs no config.
	b.Send("b", "a", "pong")
	waitUntil(t, "a to receive pong", func() bool { return gotA.count() == 1 })
	if m := gotA.last(); m.Payload != "pong" {
		t.Fatalf("a received %+v", m)
	}

	if s := a.Stats(); s.Sent != 1 || s.Bytes == 0 {
		t.Fatalf("a stats = %+v, want Sent=1 and nonzero Bytes", s)
	}
	if s := b.Stats(); s.Delivered != 1 {
		t.Fatalf("b stats = %+v, want Delivered=1", s)
	}
}

// TestTCPNetLocalDelivery checks that co-located nodes bypass the socket:
// delivery works with no peer table and no wire bytes.
func TestTCPNetLocalDelivery(t *testing.T) {
	n := newTCP(t, nil)
	var got collector
	n.Register("x", func(Message) {})
	n.Register("y", got.handle)
	n.Start()
	n.Send("x", "y", "hello")
	waitUntil(t, "local delivery", func() bool { return got.count() == 1 })
	if s := n.Stats(); s.Bytes != 0 || s.Delivered != 1 {
		t.Fatalf("stats = %+v, want Bytes=0 Delivered=1", s)
	}
}

// TestTCPNetPeerDownAtSend sends to an address nobody listens on: the
// message must be counted dropped without blocking the sender.
func TestTCPNetPeerDownAtSend(t *testing.T) {
	// Reserve a port and close it so the dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	a := newTCP(t, map[NodeID]string{"b": dead})
	a.Register("a", func(Message) {})
	a.Start()
	done := make(chan struct{})
	go func() {
		a.Send("a", "b", "into the void")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send blocked on a down peer")
	}
	waitUntil(t, "drop to be counted", func() bool { return a.Stats().Dropped >= 1 })
}

// TestTCPNetReconnectAfterRestart kills the receiving process's listener
// and restarts it on the same address: after the backoff window, traffic
// must flow again over a fresh connection.
func TestTCPNetReconnectAfterRestart(t *testing.T) {
	b := newTCP(t, nil)
	addr := b.Addr().String()
	var got collector
	b.Register("b", got.handle)
	b.Start()

	a := newTCP(t, map[NodeID]string{"b": addr})
	a.Register("a", func(Message) {})
	a.Start()
	a.Send("a", "b", "before")
	waitUntil(t, "delivery before restart", func() bool { return got.count() == 1 })

	b.Close() // "crash" the remote process

	// Messages sent during the outage are dropped (lossy channel). The
	// first write on the stale connection may succeed locally (TCP buffers
	// it; the RST arrives later), so keep sending until the error surfaces.
	waitUntil(t, "outage drop", func() bool {
		a.Send("a", "b", "during outage")
		time.Sleep(5 * time.Millisecond)
		return a.Stats().Dropped >= 1
	})

	// Restart on the same address, as a restarted process would.
	b2, err := NewTCPNet(TCPConfig{Listen: addr, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	defer b2.Close()
	var got2 collector
	b2.Register("b", got2.handle)
	b2.Start()

	// Keep sending until one gets through: early attempts may fall inside
	// the redial backoff window or hit the torn-down connection.
	waitUntil(t, "delivery after restart", func() bool {
		a.Send("a", "b", "after")
		time.Sleep(5 * time.Millisecond)
		return got2.count() > 0
	})
}

// TestTCPNetOversizedInboundFrame writes a frame header advertising an
// absurd length: the receiver must reject it and close that connection
// while continuing to serve other connections.
func TestTCPNetOversizedInboundFrame(t *testing.T) {
	b := newTCP(t, nil)
	var got collector
	b.Register("b", got.handle)
	b.Start()

	conn := dialWire(t, b)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The receiver closes the poisoned connection...
	waitUntil(t, "oversized frame rejection", func() bool { return b.Stats().Dropped >= 1 })
	one := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(one); err == nil {
		t.Fatal("connection still open after oversized frame")
	}
	// ...and keeps serving well-formed traffic on new connections.
	a := newTCP(t, map[NodeID]string{"b": b.Addr().String()})
	a.Register("a", func(Message) {})
	a.Start()
	a.Send("a", "b", "still alive?")
	waitUntil(t, "delivery after oversized frame", func() bool { return got.count() == 1 })
}

// TestTCPNetTruncatedInboundFrame closes the connection mid-frame: the
// receiver must drop the fragment without delivering anything and without
// disturbing later connections.
func TestTCPNetTruncatedInboundFrame(t *testing.T) {
	b := newTCP(t, nil)
	var got collector
	b.Register("b", got.handle)
	b.Start()

	conn := dialWire(t, b)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	conn.Write(hdr[:])
	conn.Write([]byte("only ten b"))
	conn.Close()
	waitUntil(t, "truncated frame rejection", func() bool { return b.Stats().Dropped >= 1 })

	a := newTCP(t, map[NodeID]string{"b": b.Addr().String()})
	a.Register("a", func(Message) {})
	a.Start()
	a.Send("a", "b", "complete frame")
	waitUntil(t, "delivery after truncated frame", func() bool { return got.count() == 1 })
	if got.last().Payload != "complete frame" {
		t.Fatalf("delivered %+v", got.last())
	}
}

// TestTCPNetUndecodableInboundFrame sends a well-framed burst of garbage:
// the decode fails, the connection closes, and the receiver lives on.
func TestTCPNetUndecodableInboundFrame(t *testing.T) {
	b := newTCP(t, nil)
	var got collector
	b.Register("b", got.handle)
	b.Start()

	conn := dialWire(t, b)
	payload := []byte("\xff\xfe\xfdnot gob")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn.Write(hdr[:])
	conn.Write(payload)
	waitUntil(t, "garbage frame rejection", func() bool { return b.Stats().Dropped >= 1 })
	if got.count() != 0 {
		t.Fatalf("garbage frame was delivered: %+v", got.last())
	}
}

// TestTCPNetRefusesPerFrameWire speaks older wire versions at a receiver:
// a bare frame holding its own gob stream, with no connection preamble
// (version 1), and version 2 to 6 preambles. The receiver must refuse
// each connection — close it, count it Dropped, deliver nothing — rather
// than guess at the stream. A sender in turn opens with the version 7
// preamble, which a version 6 receiver refuses the same way.
func TestTCPNetRefusesPerFrameWire(t *testing.T) {
	b := newTCP(t, nil)
	var got collector
	b.Register("b", got.handle)
	b.Start()

	conn, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(tcpFrame{From: "a", To: "b", Payload: "old wire"}); err != nil {
		t.Fatal(err)
	}
	conn.Write(binary.BigEndian.AppendUint32(nil, uint32(body.Len())))
	conn.Write(body.Bytes())
	waitUntil(t, "per-frame wire refusal", func() bool { return b.Stats().Dropped >= 1 })
	one := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(one); err == nil {
		t.Fatal("connection still open after a frame without preamble")
	}
	if got.count() != 0 {
		t.Fatalf("per-frame wire was delivered: %+v", got.last())
	}

	for _, v := range []byte{2, 3, 4, 5, 6} {
		old, err := net.Dial("tcp", b.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close()
		old.Write([]byte{'E', 'S', 'D', 'S', 0, 0, 0, v})
		waitUntil(t, fmt.Sprintf("wire version %d refusal", v), func() bool { return b.Stats().Dropped >= uint64(v) })
		old.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := old.Read(one); err == nil {
			t.Fatalf("connection still open after a version %d preamble", v)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a := newTCP(t, map[NodeID]string{"old": ln.Addr().String()})
	a.Start()
	a.Send("a", "old", "hello")
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	hdr := make([]byte, len(tcpPreamble))
	in.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(in, hdr); err != nil {
		t.Fatal(err)
	}
	if want := []byte{'E', 'S', 'D', 'S', 0, 0, 0, 7}; !bytes.Equal(hdr, want) {
		t.Fatalf("sender opened with preamble %x, want %x: a version 6 receiver must refuse it", hdr, want)
	}
}

// streamProbe is a struct payload, so its gob type definition is a real
// part of the first frame that carries one.
type streamProbe struct {
	Seq  int
	Note string
}

// TestTCPNetStreamSendsDescriptorsOnce sends two frames of the same payload
// type over one connection: both must arrive, and the second must be the
// smaller, because the connection's gob stream already carried the type
// definitions in the first.
func TestTCPNetStreamSendsDescriptorsOnce(t *testing.T) {
	gob.Register(streamProbe{})
	b := newTCP(t, nil)
	a := newTCP(t, map[NodeID]string{"b": b.Addr().String()})
	var got collector
	b.Register("b", got.handle)
	a.Start()
	b.Start()

	a.Send("a", "b", streamProbe{Seq: 1, Note: "first"})
	waitUntil(t, "first frame", func() bool { return got.count() == 1 && a.Stats().Bytes > 0 })
	first := a.Stats().Bytes
	a.Send("a", "b", streamProbe{Seq: 2, Note: "again"})
	waitUntil(t, "second frame", func() bool { return got.count() == 2 && a.Stats().Bytes > first })
	second := a.Stats().Bytes - first
	if m := got.last(); m.Payload != (streamProbe{Seq: 2, Note: "again"}) {
		t.Fatalf("second frame delivered %+v", m)
	}
	if second >= first {
		t.Fatalf("second frame is %d bytes, first %d: the stream re-sent its type definitions", second, first)
	}
	if s := a.Stats(); s.Flushes != 2 || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want 2 flushes on one connection and no drops", s)
	}
}

// TestTCPNetConcurrentSenders sends from several goroutines at once to one
// peer: the frames share one sender goroutine and one gob stream, and
// every frame must arrive intact (run under -race by make race).
func TestTCPNetConcurrentSenders(t *testing.T) {
	gob.Register(streamProbe{})
	b := newTCP(t, nil)
	a := newTCP(t, map[NodeID]string{"b": b.Addr().String()})
	var got collector
	b.Register("b", got.handle)
	a.Start()
	b.Start()

	const senders, each = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Send("a", "b", streamProbe{Seq: g*each + i, Note: "concurrent"})
			}
		}()
	}
	wg.Wait()
	waitUntil(t, "every frame", func() bool { return got.count() == senders*each })
	got.mu.Lock()
	defer got.mu.Unlock()
	seen := make(map[int]bool)
	for _, m := range got.msgs {
		p, ok := m.Payload.(streamProbe)
		if !ok || p.Note != "concurrent" || seen[p.Seq] {
			t.Fatalf("bad or duplicate delivery %+v", m.Payload)
		}
		seen[p.Seq] = true
	}
	if s := a.Stats(); s.Dropped != 0 {
		t.Fatalf("dropped %d frames on a healthy link", s.Dropped)
	}
}

// TestTCPNetOversizedOutboundDropped drops messages whose encoding exceeds
// MaxFrame at send time, before they reach the socket.
func TestTCPNetOversizedOutboundDropped(t *testing.T) {
	b := newTCP(t, nil)
	var got collector
	b.Register("b", got.handle)
	b.Start()

	a, err := NewTCPNet(TCPConfig{
		Listen:   "127.0.0.1:0",
		Peers:    map[NodeID]string{"b": b.Addr().String()},
		MaxFrame: 256, // fits one small string frame (gob type info ≈ 100 bytes) but not the 4 KiB payload
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register("a", func(Message) {})
	a.Start()

	big := make([]byte, 4096)
	a.Send("a", "b", string(big))
	waitUntil(t, "oversized send drop", func() bool { return a.Stats().Dropped >= 1 })
	a.Send("a", "b", "small")
	waitUntil(t, "small frame delivery", func() bool { return got.count() == 1 })
	if got.last().Payload != "small" {
		t.Fatalf("delivered %+v", got.last())
	}
}

// TestTCPNetStaticPeerNotOverridden checks that a configured peer address
// survives a frame advertising a different (wrong) reply address: operator
// configuration outranks what a peer claims about itself.
func TestTCPNetStaticPeerNotOverridden(t *testing.T) {
	a := newTCP(t, nil)
	var gotA collector
	a.Register("a", gotA.handle)
	a.Start()

	// b advertises an address nobody listens on, as a replica bound to a
	// wildcard interface might.
	b, err := NewTCPNet(TCPConfig{
		Listen:    "127.0.0.1:0",
		Advertise: "127.0.0.1:1", // wrong on purpose
		Peers:     map[NodeID]string{"a": a.Addr().String()},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var gotB collector
	b.Register("b", gotB.handle)
	b.Start()

	a.SetPeer("b", b.Addr().String()) // static, correct
	b.Send("b", "a", "claiming a bogus reply address")
	waitUntil(t, "a to receive", func() bool { return gotA.count() == 1 })

	// If a had believed the advertisement, this send would dial the dead
	// address and drop; the static entry must win.
	a.Send("a", "b", "to the configured address")
	waitUntil(t, "b to receive on its real address", func() bool { return gotB.count() == 1 })
}

// TestTCPNetWildcardAdvertisementIgnored checks that an advertised reply
// address with an unspecified host is not learned: dialing it from another
// machine would not reach the peer, so it is useless routing information.
func TestTCPNetWildcardAdvertisementIgnored(t *testing.T) {
	a := newTCP(t, nil)
	var gotA collector
	a.Register("a", gotA.handle)
	a.Start()

	b, err := NewTCPNet(TCPConfig{
		Listen:    "127.0.0.1:0",
		Advertise: "[::]:7777",
		Peers:     map[NodeID]string{"a": a.Addr().String()},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register("b", func(Message) {})
	b.Start()

	b.Send("b", "a", "hello from a wildcard-bound peer")
	waitUntil(t, "a to receive", func() bool { return gotA.count() == 1 })

	// a must not have learned "[::]:7777"; with no usable address the
	// reply is dropped rather than dialed somewhere wrong.
	a.Send("a", "b", "reply")
	waitUntil(t, "reply to be dropped", func() bool { return a.Stats().Dropped >= 1 })
}

// TestTCPNetUnknownDestination drops sends to nodes with no address.
func TestTCPNetUnknownDestination(t *testing.T) {
	a := newTCP(t, nil)
	a.Register("a", func(Message) {})
	a.Start()
	a.Send("a", "nowhere", "lost")
	if s := a.Stats(); s.Dropped != 1 || s.Sent != 1 {
		t.Fatalf("stats = %+v, want Sent=1 Dropped=1", s)
	}
}

// TestTCPNetBufferedWriterCoalescesFrames bursts many frames at a peer and
// checks the sender's buffered writer folded them into fewer explicit
// flushes than frames — a batch of queued frames is one write syscall. The
// lazy dial makes this deterministic: every frame sent while the first
// dial is in progress queues behind it, and the backlog drains through the
// buffer in large batches.
func TestTCPNetBufferedWriterCoalescesFrames(t *testing.T) {
	b := newTCP(t, nil)
	a := newTCP(t, map[NodeID]string{"b": b.Addr().String()})
	var got collector
	b.Register("b", got.handle)
	a.Start()
	b.Start()

	const frames = 500
	for i := 0; i < frames; i++ {
		a.Send("a", "b", "payload")
	}
	waitUntil(t, "all frames delivered", func() bool { return got.count() == frames })
	// The sender counts a flush only once its write returns, and the
	// receiver can count every frame before that: wait for the count too.
	waitUntil(t, "the last flush counted", func() bool {
		s := a.Stats()
		return s.Sent == frames && s.Flushes > 0
	})

	s := a.Stats()
	if s.Flushes >= s.Sent {
		t.Fatalf("flushes = %d for %d frames: the writer never coalesced", s.Flushes, s.Sent)
	}
	if s.Dropped != 0 {
		t.Fatalf("dropped %d frames on a healthy link", s.Dropped)
	}
}

// TestTCPNetWriteBufferBoundsBatch caps WriteBuffer below two frames so
// every flush carries exactly one: the bound is respected, and a lone
// frame is still flushed immediately (batching never delays delivery).
func TestTCPNetWriteBufferBoundsBatch(t *testing.T) {
	b := newTCP(t, nil)
	a, err := NewTCPNet(TCPConfig{
		Listen:      "127.0.0.1:0",
		Peers:       map[NodeID]string{"b": b.Addr().String()},
		WriteBuffer: 1, // smaller than any frame: one frame per flush
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("NewTCPNet: %v", err)
	}
	t.Cleanup(a.Close)
	var got collector
	b.Register("b", got.handle)
	a.Start()
	b.Start()

	const frames = 50
	for i := 0; i < frames; i++ {
		a.Send("a", "b", "x")
	}
	waitUntil(t, "all frames delivered", func() bool { return got.count() == frames })
	if s := a.Stats(); s.Flushes != frames {
		t.Fatalf("flushes = %d with a one-byte write buffer, want %d", s.Flushes, frames)
	}
}
