package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPNet carries messages over real TCP sockets, so a cluster's nodes can
// live in different OS processes (or different machines). It implements the
// same Network contract as SimNet and LiveNet: asynchronous sends, no FIFO
// or reliability guarantee across reconnects, and undeliverable messages
// silently dropped — the algorithm's front-end retransmission restores
// liveness, exactly as over a lossy datagram network.
//
// # Wire format
//
// Every connection opens with an 8-byte preamble and then carries ONE gob
// stream, cut into length-prefixed frames:
//
//	preamble: uint32 magic "ESDS" | uint32 wire version   (big-endian)
//	frame:    uint32 big-endian length | gob messages
//
// A frame holds one tcpFrame (From, To, ReplyTo, Feat, Subs, Payload),
// preceded by the gob type definitions the connection has not carried yet.
// The sender goroutine owns the connection's gob.Encoder and the reader
// goroutine its gob.Decoder, so a type's descriptor crosses the wire, and
// is compiled into a decode engine, once per connection instead of once
// per frame. Both streams live and die with their connection: a redial
// starts a fresh pair, and anything that could desynchronize them — an
// undecodable frame, a frame with bytes gob did not consume, an outbound
// frame dropped after encoding — closes the connection. A receiver that
// reads any other preamble closes the connection; an older build, which
// expects bare frames, reads the magic as a frame length above MaxFrame
// and does the same, so mismatched builds fail loudly in both directions.
// Payloads are carried in an interface field: every concrete payload type
// crossing the wire must be registered with encoding/gob (see
// core.RegisterWire). A payload type that implements
// encoding.BinaryMarshaler travels as the bytes it encodes itself to, so
// gob walks none of its fields: core's requests and responses do, and its
// compact gossip frame is a byte payload already, so on the hot path gob
// carries only the envelope. A payload that fails to encode — such as
// one holding an operator with no wire form — is dropped like an
// oversized one, and its connection is reset.
//
// # Addressing
//
// Outbound routing uses a NodeID → "host:port" table seeded from
// TCPConfig.Peers and extended dynamically: every frame advertises the
// sender process's listen address (ReplyTo), and the receiver records it
// for the sending node. A front end therefore needs no static entry in the
// replicas' peer tables — its first request teaches each replica where to
// send the response.
//
// # Connection management
//
// One sender goroutine per remote address owns an outbound connection,
// dialing lazily and redialing after failures with a backoff window during
// which frames are counted Dropped without blocking the caller. Send never
// blocks on the network and never encodes: the sender goroutine does, so a
// payload must not be mutated after Send. Inbound connections are read by per-connection
// goroutines; a malformed frame (oversized, truncated, or undecodable)
// closes that one connection without disturbing the listener or other
// connections.
type TCPNet struct {
	mu       sync.Mutex
	cfg      TCPConfig
	ln       net.Listener
	started  bool
	closed   bool
	handlers map[NodeID]*mailbox
	inline   map[NodeID]Handler
	peers    map[NodeID]string // node → dial address (seeded + learned)
	// static marks peers entries set by configuration (TCPConfig.Peers or
	// SetPeer). A frame's advertised ReplyTo never overrides them: a
	// statically configured address is the operator's knowledge of the
	// topology, while an advertised one may be wrong for this process
	// (e.g. a peer bound to a wildcard address).
	static  map[NodeID]bool
	senders map[string]*tcpSend // dial address → sender goroutine state
	inbound map[net.Conn]struct{}
	// feat holds capability bits per node (FeatureNegotiator): announced
	// for local nodes, learned from frames for remote peers. Every outbound
	// frame piggybacks the sender node's announced bits, so a peer knows a
	// node's capabilities as soon as its first frame arrives — no extra
	// handshake round, and a restarted peer re-teaches them on reconnect.
	feat map[NodeID]uint32
	// subs is this member's announced shard subscription (ShardSubscriber),
	// packed one bit per shard; nil means no subscription (host everything,
	// the legacy behavior). It rides on every outbound frame and gates
	// inbound Subscribable frames.
	subs []uint64
	// peerSubs holds the subscriptions learned from peers' frames, keyed by
	// the peer's advertised dial address — the member identity, since one
	// TCPNet instance is one member. A missing entry means the peer never
	// announced (older build, or no placement): senders must not suppress.
	peerSubs map[string][]uint64
	// fallback, when set, receives inbound frames addressed to unregistered
	// nodes (FallbackRegistrar) instead of having them dropped — the hook
	// the keyspace's wrong-member redirects hang off.
	fallback Handler
	stats    Stats
	wg       sync.WaitGroup
}

var (
	_ Network           = (*TCPNet)(nil)
	_ InlineRegistrar   = (*TCPNet)(nil)
	_ FeatureNegotiator = (*TCPNet)(nil)
	_ ShardSubscriber   = (*TCPNet)(nil)
	_ FallbackRegistrar = (*TCPNet)(nil)
)

// TCPConfig configures a TCPNet.
type TCPConfig struct {
	// Listen is the TCP address to bind for inbound frames, e.g.
	// "127.0.0.1:7001" or "127.0.0.1:0" (kernel-assigned port). Required:
	// even client-only processes listen, because replicas dial back to
	// deliver responses.
	Listen string
	// Advertise is the address other processes should dial to reach this
	// one, carried in every frame's ReplyTo. Defaults to the bound listen
	// address (correct on loopback and flat networks).
	Advertise string
	// Peers seeds the node → address table. Entries for nodes registered
	// locally are ignored (local delivery bypasses the network).
	Peers map[NodeID]string
	// MaxFrame caps the encoded size of a single message in bytes. Larger
	// outbound messages are dropped and their connection redialed (the
	// dropped frame may hold type definitions of the connection's gob
	// stream); larger inbound length headers are treated as stream
	// corruption and close the connection. Default 16 MiB.
	MaxFrame int
	// DialTimeout bounds each connection attempt. Default 2s.
	DialTimeout time.Duration
	// RedialBackoff is how long a peer address is considered down after a
	// failed dial or write; frames sent to it inside the window are dropped
	// immediately. Default 100ms.
	RedialBackoff time.Duration
	// WriteBuffer is the size in bytes of the per-connection buffered
	// writer, and the bound on how many queued frames one explicit flush
	// (= one write syscall) may carry: the sender drains every frame
	// already queued for an address — up to this many bytes — writes them
	// through the buffer, and flushes once. Under load this coalesces the
	// per-frame syscalls the unbatched hot path paid into one, without
	// delaying anything (a lone frame is still flushed immediately).
	// Default 256 KiB.
	WriteBuffer int
	// Logf receives diagnostic messages (connection errors, dropped
	// frames). Nil discards them.
	Logf func(format string, args ...any)
}

type tcpFrame struct {
	From    NodeID
	To      NodeID
	ReplyTo string
	// Feat carries the sending node's announced capability bits
	// (FeatureNegotiator); a frame without bits decodes as 0 = no
	// capabilities. The connection preamble versions the wire as a whole;
	// these bits negotiate the optional forms within one version.
	Feat uint32
	// Subs carries the sending MEMBER's shard subscription bitmap
	// (ShardSubscriber), nil when the member never subscribed — gob omits
	// the nil field entirely, so non-placement deployments pay zero bytes
	// for it.
	Subs    []uint64
	Payload any
}

// tcpSend owns the outbound connection to one remote address. The queue is
// unbounded so Send never blocks; the sender goroutine drains and encodes
// it, dialing on demand. When the address is down (dial or write failed),
// frames are dropped until the backoff window elapses.
type tcpSend struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []tcpFrame
	conn   net.Conn
	closed bool
}

// tcpPreamble opens every connection: the magic "ESDS" and the wire
// version, big-endian. Version 1 was a fresh gob stream per frame and had
// no preamble; read as its frame length, the magic exceeds any MaxFrame.
// Version 2 carried gossip without acknowledgements: a peer that never
// acknowledges would hold its peers' change logs forever, so it may not
// connect. Version 3 carried requests and responses as gob structs and the
// compact gossip codec's operators beside its bytes. Version 4 carried the
// hot frames in their own binary form (core's wire.go) but gossip labels
// as a map and compact gossip as codec V3; version 5 carried gossip's
// labels and identifiers one per entry and compact gossip as codec V4.
// Version 6 carried them as per-client runs, plain and as codec V5, one
// message per frame, as version 7 does: a version 5 peer would decode
// their runs as empty lists and drop them silently. Version 7 carries
// Set, Bank and Log states (in range answers and KeyInstall) as
// length-prefixed entries, where version 6 joined them with separators:
// each side would refuse or misread the other's state bytes.
var tcpPreamble = []byte{'E', 'S', 'D', 'S', 0, 0, 0, tcpWireVersion}

const tcpWireVersion = 7

// errMalformed marks inbound bytes that break the wire format. The
// connection carrying them is closed and counted Dropped.
var errMalformed = errors.New("malformed")

const defaultMaxFrame = 16 << 20

// NewTCPNet binds the listen address and returns the transport. Nodes must
// be registered and Start called before inbound frames are accepted;
// frames arriving for unregistered nodes are dropped.
func NewTCPNet(cfg TCPConfig) (*TCPNet, error) {
	if cfg.Listen == "" {
		return nil, fmt.Errorf("transport: TCPConfig.Listen is required")
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = defaultMaxFrame
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 100 * time.Millisecond
	}
	if cfg.WriteBuffer <= 0 {
		cfg.WriteBuffer = 256 << 10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	if cfg.Advertise == "" {
		cfg.Advertise = ln.Addr().String()
	}
	n := &TCPNet{
		cfg:      cfg,
		ln:       ln,
		handlers: make(map[NodeID]*mailbox),
		peers:    make(map[NodeID]string),
		static:   make(map[NodeID]bool),
		senders:  make(map[string]*tcpSend),
		inbound:  make(map[net.Conn]struct{}),
	}
	for id, addr := range cfg.Peers {
		n.peers[id] = addr
		n.static[id] = true
	}
	return n, nil
}

// Addr returns the bound listen address (useful with Listen ":0").
func (n *TCPNet) Addr() net.Addr { return n.ln.Addr() }

// Register implements Network. As in LiveNet, each node gets an unbounded
// mailbox drained by its own goroutine, so handlers never run on (and never
// block) a connection's reader goroutine.
func (n *TCPNet) Register(id NodeID, h Handler) {
	if h == nil {
		panic("transport: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("transport: Register on closed TCPNet")
	}
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("transport: node %q registered twice", id))
	}
	if _, dup := n.inline[id]; dup {
		panic(fmt.Sprintf("transport: node %q registered twice", id))
	}
	mb := &mailbox{handler: h}
	mb.cond = sync.NewCond(&mb.mu)
	n.handlers[id] = mb
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		mb.run()
	}()
}

// RegisterInline implements InlineRegistrar: frames for id are handed to h
// directly on the connection's reader goroutine (or the sender's, for local
// destinations), with no mailbox in between. The handler must not block, or
// it stalls every frame behind it on that connection.
func (n *TCPNet) RegisterInline(id NodeID, h Handler) {
	if h == nil {
		panic("transport: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("transport: RegisterInline on closed TCPNet")
	}
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("transport: node %q registered twice", id))
	}
	if _, dup := n.inline[id]; dup {
		panic(fmt.Sprintf("transport: node %q registered twice", id))
	}
	if n.inline == nil {
		n.inline = make(map[NodeID]Handler)
	}
	n.inline[id] = h
}

// Start begins accepting inbound connections. Call it after registering the
// local nodes so no early frame is dropped for want of a handler.
func (n *TCPNet) Start() {
	n.mu.Lock()
	if n.started || n.closed {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop()
}

func (n *TCPNet) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection until EOF or a
// malformed frame. Errors close only this connection: the listener and all
// other connections keep running, and the remote sender will redial.
func (n *TCPNet) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	err := readFrames(conn, n.cfg.MaxFrame, n.deliver)
	if errors.Is(err, errMalformed) {
		n.cfg.Logf("transport: tcp %v from %s, closing connection", err, conn.RemoteAddr())
		n.bumpDropped()
	} else if err != nil {
		n.cfg.Logf("transport: tcp read from %s: %v", conn.RemoteAddr(), err)
	}
}

// readFrames decodes one inbound connection: the preamble, then frames,
// each handed whole to the connection's one gob stream and then to
// deliver. It returns nil when the connection ends cleanly between frames,
// the read error when it breaks there, and an errMalformed error — after
// which nothing more is delivered — for a wrong preamble, a length of 0 or
// above maxFrame, a truncated or undecodable frame, or one with bytes left
// over after its tcpFrame.
func readFrames(r io.Reader, maxFrame int, deliver func(tcpFrame)) error {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: truncated preamble", errMalformed)
		}
		return ignoreEOF(err)
	}
	if !bytes.Equal(hdr[:], tcpPreamble) {
		return fmt.Errorf("%w: preamble %x is not wire version %d", errMalformed, hdr, tcpWireVersion)
	}
	fr := &frameReader{r: br}
	dec := gob.NewDecoder(fr)
	for {
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return fmt.Errorf("%w: truncated frame header", errMalformed)
			}
			return ignoreEOF(err)
		}
		// The length prefix is the only framing; an absurd value means the
		// stream is garbage, so drop the connection rather than trust it to
		// resynchronize.
		size := binary.BigEndian.Uint32(hdr[:4])
		if size == 0 || size > uint32(maxFrame) {
			return fmt.Errorf("%w: frame of %d bytes exceeds limit %d", errMalformed, size, maxFrame)
		}
		fr.left = int(size)
		var f tcpFrame // fresh: gob leaves fields absent from the wire untouched
		if err := dec.Decode(&f); err != nil {
			return fmt.Errorf("%w: undecodable frame: %v", errMalformed, err)
		}
		if fr.left != 0 {
			return fmt.Errorf("%w: %d bytes left over after the frame's message", errMalformed, fr.left)
		}
		deliver(f)
	}
}

func ignoreEOF(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// frameReader feeds gob one frame at a time: it reads through to the
// connection but reports EOF at the frame's end, so the decoder can never
// consume the next frame's bytes. It is an io.ByteReader, so gob adds no
// read-ahead buffer of its own.
type frameReader struct {
	r    *bufio.Reader
	left int // bytes of the current frame not yet read
}

func (fr *frameReader) Read(p []byte) (int, error) {
	if fr.left == 0 {
		return 0, io.EOF
	}
	if len(p) > fr.left {
		p = p[:fr.left]
	}
	k, err := fr.r.Read(p)
	fr.left -= k
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the connection ended inside the frame
	}
	return k, err
}

func (fr *frameReader) ReadByte() (byte, error) {
	if fr.left == 0 {
		return 0, io.EOF
	}
	b, err := fr.r.ReadByte()
	if err == io.EOF {
		return 0, io.ErrUnexpectedEOF
	}
	if err == nil {
		fr.left--
	}
	return b, err
}

// deliver routes a decoded frame to the local mailbox for f.To, learning
// the sender's advertised address on the way. Statically configured
// addresses are never overridden, and an advertisement whose host is
// unspecified (a peer that bound a wildcard address without setting
// Advertise) is unusable for dialing and is ignored.
func (n *TCPNet) deliver(f tcpFrame) {
	n.mu.Lock()
	{
		_, local := n.handlers[f.From]
		_, inl := n.inline[f.From]
		if !local && !inl {
			if f.ReplyTo != "" && dialable(f.ReplyTo) && !n.static[f.From] {
				n.peers[f.From] = f.ReplyTo
			}
			// Learn the sender's capability bits (unconditionally: a frame
			// without bits is a pre-feature or downgraded peer, and zero is
			// exactly what senders must then assume).
			if n.feat == nil {
				n.feat = make(map[NodeID]uint32)
			}
			n.feat[f.From] = f.Feat
			// Learn the sending member's shard subscription, keyed by its
			// dial address (one TCPNet = one member). A frame without one is
			// a pre-subscription or unplaced peer: forget any earlier
			// announcement so a member that dropped its subscription stops
			// being suppressed toward.
			if f.ReplyTo != "" {
				if f.Subs != nil {
					if n.peerSubs == nil {
						n.peerSubs = make(map[string][]uint64)
					}
					n.peerSubs[f.ReplyTo] = f.Subs
				} else if n.peerSubs != nil {
					delete(n.peerSubs, f.ReplyTo)
				}
			}
		}
	}
	// Subscription gate (DESIGN.md §13): a subscribed member refuses gossip
	// for shards it does not host. Send-side suppression means such frames
	// normally never arrive; this is the receive-side backstop for peers
	// that have not yet learned the subscription, and the counter interop
	// tests assert on.
	if n.subs != nil {
		if _, topical := f.Payload.(Subscribable); topical && !bitmapHas(n.subs, ShardOfNode(f.To)) {
			n.stats.Foreign++
			n.stats.Dropped++
			n.mu.Unlock()
			n.cfg.Logf("transport: tcp gossip frame for unhosted shard %d (node %q) dropped", ShardOfNode(f.To), f.To)
			return
		}
	}
	if h, ok := n.inline[f.To]; ok {
		n.stats.Delivered++
		n.mu.Unlock()
		h(Message{From: f.From, To: f.To, Payload: f.Payload})
		return
	}
	mb, ok := n.handlers[f.To]
	if !ok {
		if fb := n.fallback; fb != nil {
			n.stats.Delivered++
			n.mu.Unlock()
			fb(Message{From: f.From, To: f.To, Payload: f.Payload})
			return
		}
		n.stats.Dropped++
		n.mu.Unlock()
		n.cfg.Logf("transport: tcp frame for unregistered node %q dropped", f.To)
		return
	}
	n.mu.Unlock()
	if mb.enqueue(Message{From: f.From, To: f.To, Payload: f.Payload}) {
		n.mu.Lock()
		n.stats.Delivered++
		n.mu.Unlock()
	}
}

// dialable reports whether addr names a host another process could dial:
// a wildcard or empty host ("0.0.0.0", "[::]", ":7000") is not one.
func dialable(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" {
		return false
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		return false
	}
	return true
}

// Send implements Network. Local destinations are delivered through their
// mailbox without touching a socket; remote destinations are queued for the
// peer's sender goroutine, which encodes them later — the payload must not
// be mutated after Send. Send never blocks on the network and never
// delivers synchronously, so callers may hold locks.
func (n *TCPNet) Send(from, to NodeID, payload any) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.stats.Sent++
	if h, ok := n.inline[to]; ok {
		n.stats.Delivered++
		n.mu.Unlock()
		h(Message{From: from, To: to, Payload: payload})
		return
	}
	if mb, ok := n.handlers[to]; ok {
		n.mu.Unlock()
		if mb.enqueue(Message{From: from, To: to, Payload: payload}) {
			n.mu.Lock()
			n.stats.Delivered++
			n.mu.Unlock()
		}
		return
	}
	addr, ok := n.peers[to]
	if !ok {
		n.stats.Dropped++
		n.mu.Unlock()
		n.cfg.Logf("transport: tcp no address for node %q, message dropped", to)
		return
	}
	// Send-side subscription suppression (DESIGN.md §13): gossip for a
	// shard the destination member announced it does not host never leaves
	// this process — the peer neither receives nor decodes it. Members that
	// never announced (no entry) get everything, the safe legacy behavior.
	if _, topical := payload.(Subscribable); topical {
		if ps, known := n.peerSubs[addr]; known && !bitmapHas(ps, ShardOfNode(to)) {
			n.stats.Sent--
			n.stats.Suppressed++
			n.mu.Unlock()
			return
		}
	}
	f := tcpFrame{From: from, To: to, ReplyTo: n.cfg.Advertise, Feat: n.feat[from], Subs: n.subs, Payload: payload}
	s, ok := n.senders[addr]
	if !ok {
		s = &tcpSend{}
		s.cond = sync.NewCond(&s.mu)
		n.senders[addr] = s
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.sendLoop(addr, s)
		}()
	}
	n.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, f)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// sendLoop drains and encodes the queue for one remote address. It owns
// the connection's gob stream: the encoder is created when the connection
// is dialed and dropped with it. Frames are encoded one at a time and
// written through a buffered writer that is flushed explicitly — once per
// WriteBuffer bytes of frames and once when the queue is empty — so a
// backlog of frames costs one write syscall, which is what makes the
// batched hot path (DESIGN.md §8) cheap on the wire.
//
// A frame that fails to encode or exceeds MaxFrame is dropped, and its
// connection closed after the frames before it are flushed: the encoder
// may already have emitted type definitions the peer will never see. A
// failed dial or write marks the address down for RedialBackoff; frames
// dequeued while it is down are dropped unencoded (the transport is lossy
// by contract — retransmission is the front end's job). The frames of a
// failed write are dropped too: the connection state is unknown, so
// resending could duplicate, and duplication is the one fault the
// algorithm does NOT need the transport to add.
func (n *TCPNet) sendLoop(addr string, s *tcpSend) {
	var (
		conn      net.Conn
		bw        *bufio.Writer
		enc       *gob.Encoder // the connection's gob stream; nil while undialed
		fb        bytes.Buffer // the frame being encoded: length prefix, then gob messages
		downUntil time.Time
		spare     []tcpFrame
		// Frames and bytes written to bw since its last flush.
		pending, pendingBytes int
	)
	closeConn := func() {
		conn.Close()
		conn, bw, enc = nil, nil, nil
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
	}
	flush := func() {
		if pending == 0 {
			return
		}
		err := bw.Flush()
		n.mu.Lock()
		n.stats.Bytes += uint64(pendingBytes)
		if err == nil {
			n.stats.Flushes++
		} else {
			n.stats.Dropped += uint64(pending)
		}
		n.mu.Unlock()
		pending, pendingBytes = 0, 0
		if err != nil {
			n.cfg.Logf("transport: tcp write %s: %v", addr, err)
			closeConn()
			downUntil = time.Now().Add(n.cfg.RedialBackoff)
		}
	}
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			if s.conn != nil {
				s.conn.Close()
				s.conn = nil
			}
			s.mu.Unlock()
			return
		}
		batch := s.queue
		s.queue = spare[:0]
		s.mu.Unlock()

		for i := range batch {
			if conn == nil {
				if time.Now().Before(downUntil) {
					n.bumpDroppedN(len(batch) - i)
					break
				}
				c, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
				if err != nil {
					n.cfg.Logf("transport: tcp dial %s: %v", addr, err)
					n.bumpDroppedN(len(batch) - i)
					downUntil = time.Now().Add(n.cfg.RedialBackoff)
					break
				}
				s.mu.Lock()
				if s.closed {
					s.mu.Unlock()
					c.Close()
					return
				}
				s.conn = c
				s.mu.Unlock()
				conn, bw, enc = c, bufio.NewWriterSize(c, n.cfg.WriteBuffer), gob.NewEncoder(&fb)
				bw.Write(tcpPreamble) // a write error surfaces at the flush
			}
			frame, err := encodeFrame(enc, &fb, &batch[i], n.cfg.MaxFrame)
			if err != nil {
				n.cfg.Logf("transport: tcp frame %T for %q dropped, reconnecting: %v", batch[i].Payload, batch[i].To, err)
				n.bumpDropped()
				flush()
				if conn != nil {
					closeConn()
				}
				continue
			}
			if pendingBytes > 0 && pendingBytes+len(frame) > n.cfg.WriteBuffer {
				flush()
				if conn == nil {
					n.bumpDroppedN(len(batch) - i)
					break
				}
			}
			bw.Write(frame) // a write error surfaces at the flush
			pending++
			pendingBytes += len(frame)
		}
		flush()
		clear(batch)
		spare = batch
	}
}

// encodeFrame encodes f as the next frame of enc's stream, which writes to
// fb: the length prefix, the type definitions the stream has not carried
// yet, and the value. The frame is valid until fb's next use.
func encodeFrame(enc *gob.Encoder, fb *bytes.Buffer, f *tcpFrame, maxFrame int) ([]byte, error) {
	fb.Reset()
	fb.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	frame := fb.Bytes()
	if len(frame)-4 > maxFrame {
		return nil, fmt.Errorf("%d bytes exceeds MaxFrame %d", len(frame)-4, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame, nil
}

func (n *TCPNet) bumpDropped() { n.bumpDroppedN(1) }

func (n *TCPNet) bumpDroppedN(count int) {
	n.mu.Lock()
	n.stats.Dropped += uint64(count)
	n.mu.Unlock()
}

// AnnounceFeatures implements FeatureNegotiator for a node of THIS process:
// the bits ride on every frame the node sends, and peers learn them in
// deliver. Local peers (same TCPNet) read them from the shared map, so
// in-process negotiation needs no frame at all.
func (n *TCPNet) AnnounceFeatures(id NodeID, features uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.feat == nil {
		n.feat = make(map[NodeID]uint32)
	}
	n.feat[id] = features
}

// PeerFeatures implements FeatureNegotiator: a local node's announcement,
// or the bits the peer's most recent frame carried. Zero until a frame from
// the peer has arrived — senders fall back to legacy encodings, which is
// the safe direction.
func (n *TCPNet) PeerFeatures(id NodeID) uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.feat[id]
}

// SubscribeShards implements ShardSubscriber: it announces the shards this
// member hosts. The bitmap rides on every subsequent outbound frame, so
// peers learn it with the member's next message; frames already encoded or
// in flight keep the previous announcement. Subscribing replaces any
// earlier subscription — call it again after a placement change.
func (n *TCPNet) SubscribeShards(shards []int) {
	b := shardBitmap(shards)
	n.mu.Lock()
	n.subs = b
	n.mu.Unlock()
}

// RegisterFallback implements FallbackRegistrar: inbound frames for
// unregistered nodes are handed to h instead of being dropped. Installing
// replaces any earlier fallback; the handler runs on the connection's
// reader goroutine (after the mailbox-less deliver path) and must not
// block.
func (n *TCPNet) RegisterFallback(h Handler) {
	n.mu.Lock()
	n.fallback = h
	n.mu.Unlock()
}

// SetPeer adds or replaces the dial address for a node at runtime. Like
// TCPConfig.Peers entries, the address is static: it is never overridden
// by a frame's advertised reply address.
func (n *TCPNet) SetPeer(id NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = addr
	n.static[id] = true
}

// Stats returns a snapshot of the counters. Bytes counts the encoded size
// (including the 4-byte length prefix) of frames written to a connection —
// real wire bytes, unlike SimNet's Sizer estimate — and is counted where
// the sender goroutine encodes them, so it trails Sent briefly. Messages
// delivered locally, and frames dropped before encoding (inside a redial
// backoff) or for exceeding MaxFrame, count zero bytes; the per-connection
// preamble is not counted.
func (n *TCPNet) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts the transport down: the listener stops, all connections
// close, queued outbound frames are discarded, and queued inbound messages
// drain to their handlers. Close blocks until every goroutine has exited.
// Close is idempotent.
func (n *TCPNet) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	senders := make([]*tcpSend, 0, len(n.senders))
	for _, s := range n.senders {
		senders = append(senders, s)
	}
	conns := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		conns = append(conns, c)
	}
	mailboxes := make([]*mailbox, 0, len(n.handlers))
	for _, mb := range n.handlers {
		mailboxes = append(mailboxes, mb)
	}
	n.mu.Unlock()

	n.ln.Close()
	for _, s := range senders {
		s.mu.Lock()
		s.closed = true
		s.queue = nil
		if s.conn != nil {
			// Closing the connection here (not just flagging closed)
			// unblocks a sender stuck in conn.Write on a peer that stopped
			// reading; otherwise wg.Wait below would hang forever.
			s.conn.Close()
			s.conn = nil
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, mb := range mailboxes {
		mb.mu.Lock()
		mb.closed = true
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	n.wg.Wait()
}
