// Package transport provides point-to-point message channels in the sense
// of Fig. 5 of Fekete et al.: reliable (by default), unordered delivery
// between named nodes. Three implementations are provided:
//
//   - SimNet: a deterministic network on the discrete-event simulator, with
//     configurable per-link latency and injectable faults (loss, duplication,
//     reordering, partitions) for the §9 performance and fault-tolerance
//     experiments. Channels are NOT FIFO, matching the paper's assumption.
//
//   - LiveNet: an in-process goroutine transport for running real clusters
//     (the examples), with unbounded mailboxes and clean shutdown.
//
//   - TCPNet: a real-socket transport for clusters whose nodes live in
//     different OS processes or machines (cmd/esds-server). Messages are
//     length-prefixed gob frames; payload types must be registered via
//     core.RegisterWire. Connections are dialed lazily and redialed after
//     failures; messages that cannot be delivered are dropped, and Stats
//     counts real wire bytes rather than Sizer estimates.
//
// Cheiner's original implementation ran on a workstation network over MPI;
// SimNet and LiveNet exercise the same code paths (asynchronous, non-FIFO,
// bounded-delay point-to-point messaging) without the hardware, and TCPNet
// restores the real-network deployment the paper assumed.
package transport

import (
	"fmt"
	"sync"

	"esds/internal/sim"
)

// NodeID names an endpoint (a replica or a front end).
type NodeID string

// Message is a payload in transit between two nodes.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
}

// Handler consumes a delivered message.
type Handler func(Message)

// Network is the channel service: nodes register a handler and send
// payloads to other nodes.
type Network interface {
	// Register installs the delivery handler for a node. It must be called
	// before any message is sent to that node, and at most once per node.
	Register(id NodeID, h Handler)
	// Send enqueues a message. Delivery is asynchronous and unordered.
	Send(from, to NodeID, payload any)
}

// InlineRegistrar is implemented by transports that can deliver a node's
// messages synchronously on the sender's (or socket reader's) goroutine,
// skipping the per-node mailbox goroutine. The handler MUST NOT block: the
// shard-per-core runtime registers handlers that only append to a worker
// queue (DESIGN.md §9), which keeps the hot path at one handoff instead of
// two. SimNet deliberately does not implement it — simulated deliveries
// must stay on the simulator's event loop for determinism.
type InlineRegistrar interface {
	// RegisterInline installs a non-blocking inline handler for a node. Same
	// contract as Register: before any Send to the node, at most once.
	RegisterInline(id NodeID, h Handler)
}

// Feature bits announced through a FeatureNegotiator. A bit names a wire
// capability the announcing node can DECODE; a sender uses the capability
// only toward peers whose announced bits include it.
const (
	// FeatureCompactGossip means the node decodes core.CompactGossipMsg,
	// the delta-encoded form of gossip (DESIGN.md §12).
	FeatureCompactGossip uint32 = 1 << 0
)

// FeatureNegotiator is implemented by transports that can carry per-node
// capability bits to peers, so wire-format upgrades deploy incrementally: a
// node announces what it can decode, and senders check PeerFeatures before
// using an upgraded form — an unannounced peer (older build, or a transport
// without negotiation) gets the legacy encoding. TCPNet piggybacks the bits
// on its frames and learns them per peer. LiveNet and SimNet do not
// implement it: an in-process transport has no wire, so there is nothing
// to encode compactly — and SimNet pins the paper's wire model.
type FeatureNegotiator interface {
	// AnnounceFeatures declares the capability bits of a LOCAL node, before
	// or after registration. Announcing replaces earlier announcements.
	AnnounceFeatures(id NodeID, features uint32)
	// PeerFeatures returns the capability bits known for a node: its own
	// announcement (local node) or what its frames carried (remote peer).
	// Zero means "nothing known" — senders must then use legacy forms.
	PeerFeatures(id NodeID) uint32
}

// Subscribable marks payloads that belong to a per-shard gossip topic
// (DESIGN.md §13): the periodic replica↔replica gossip forms. A transport
// with shard subscriptions suppresses Subscribable frames toward members
// whose announced subscription excludes the destination shard. Request,
// response, recovery, and range-catch-up traffic deliberately does NOT
// implement it — that is the req/resp domain, which must reach a member
// regardless of placement so it can answer or redirect.
type Subscribable interface {
	// SubscribableGossip is a marker method; it is never called.
	SubscribableGossip()
}

// ShardSubscriber is implemented by transports where one transport
// instance is one fleet MEMBER (TCPNet: one process, one listen address)
// and can therefore announce which keyspace shards the member hosts.
// After SubscribeShards:
//
//   - outbound: every frame carries the subscription, teaching peers the
//     member's hosted set;
//   - inbound: Subscribable frames for shards outside the subscription are
//     counted Foreign and dropped without delivery;
//   - peers: senders suppress Subscribable frames toward this member for
//     shards it does not host, so suppressed gossip never crosses the wire
//     at all — the subscription is wire-visible, not a local filter.
//
// LiveNet and SimNet deliberately do not implement it: a single in-process
// bus hosts every member at once, so "which member hosts this shard" has
// no per-instance meaning there; placement-dependent wire behavior is
// exercised on TCPNet fleets.
type ShardSubscriber interface {
	// SubscribeShards announces the hosted shard set, replacing any earlier
	// announcement. Members learn a peer's subscription from its frames, so
	// announce before Start to avoid an unsubscribed first impression. An
	// empty (non-nil) slice means "hosts nothing" — a client-only member.
	SubscribeShards(shards []int)
}

// FallbackRegistrar is implemented by transports that can hand INBOUND
// frames addressed to unregistered nodes to a process-wide fallback handler
// instead of dropping them. Under shard placement a member registers only
// the replica nodes it hosts, so a request frame for an unregistered
// replica node is a routing mistake — the sender's peer table was computed
// from an older placement — and the fallback is where the keyspace answers
// it with a wrong-member Redirect (DESIGN.md §13). Only frames arriving
// from OTHER processes reach the fallback: a local Send to an unregistered
// node still routes through the peer table to the wire, so a member's own
// front ends reach remote shards normally.
type FallbackRegistrar interface {
	// RegisterFallback installs (or replaces) the fallback handler. The
	// handler runs on the delivering goroutine and must not block.
	RegisterFallback(h Handler)
}

// ShardOfNode extracts the keyspace shard from a node name. Shard-qualified
// names have an "s<digits>/" prefix (see core.ReplicaNodeIn); names without
// one — legacy replica names, front ends, and everything else — are shard 0.
func ShardOfNode(id NodeID) int {
	if len(id) < 3 || id[0] != 's' {
		return 0
	}
	shard, i := 0, 1
	for i < len(id) && id[i] >= '0' && id[i] <= '9' {
		shard = shard*10 + int(id[i]-'0')
		i++
	}
	if i == 1 || i >= len(id) || id[i] != '/' {
		return 0
	}
	return shard
}

// shardBitmap packs a shard set into the wire form carried on frames: one
// bit per shard. The result always has at least one word, so an empty
// subscription ("hosts nothing") survives gob, which drops zero-length
// slices — a nil result would read back as "no subscription at all".
func shardBitmap(shards []int) []uint64 {
	words := 1
	for _, s := range shards {
		if s/64+1 > words {
			words = s/64 + 1
		}
	}
	b := make([]uint64, words)
	for _, s := range shards {
		if s >= 0 {
			b[s/64] |= 1 << (uint(s) % 64)
		}
	}
	return b
}

// bitmapHas reports whether the packed shard set contains shard.
func bitmapHas(b []uint64, shard int) bool {
	if shard < 0 || shard/64 >= len(b) {
		return false
	}
	return b[shard/64]&(1<<(uint(shard)%64)) != 0
}

// Stats are cumulative message counters, used by the communication
// experiments (E8 and E12).
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64 // deliveries caused by duplication faults
	Bytes      uint64 // estimated payload bytes sent (via the Sizer)
	// Flushes counts explicit buffered-writer flushes (TCPNet only): each
	// flush is one write syscall carrying one or more queued frames, so
	// Sent/Flushes approximates the achieved frames-per-syscall of the
	// batched hot path. Zero on SimNet and LiveNet, which have no sockets.
	Flushes uint64
	// Suppressed counts outbound Subscribable frames withheld because the
	// destination member's announced shard subscription excludes the target
	// shard (ShardSubscriber transports only). Suppressed frames never
	// reach the wire and are not counted in Sent or Bytes.
	Suppressed uint64
	// Foreign counts inbound Subscribable frames that arrived for a shard
	// outside this transport's own subscription. Zero in a correctly placed
	// fleet — nonzero means some peer sent gossip past the subscription
	// (e.g. before it learned this member's hosted set).
	Foreign uint64
}

// --- SimNet ---

// SimNetConfig configures the simulated network.
type SimNetConfig struct {
	// Latency returns the delivery delay for a message. It must be
	// deterministic given its inputs and the provided rng. If nil, a fixed
	// 1ms latency is used. The paper's d_f and d_g bounds are produced by
	// supplying a latency function bounded by those values.
	Latency func(from, to NodeID, rng interface{ Intn(int) int }) sim.Duration
	// DropProb is the probability a message is lost (fault injection).
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// Sizer estimates the payload size in bytes for the Bytes counter.
	// If nil, every payload counts as 1.
	Sizer func(payload any) int
}

// SimNet is a simulated network. All methods must be called from the
// simulator's goroutine (i.e. from within event handlers or before Run).
type SimNet struct {
	s        *sim.Sim
	cfg      SimNetConfig
	handlers map[NodeID]Handler
	stats    Stats
	downNode map[NodeID]bool
	downLink map[[2]NodeID]bool
}

var _ Network = (*SimNet)(nil)

// NewSimNet creates a simulated network on s.
func NewSimNet(s *sim.Sim, cfg SimNetConfig) *SimNet {
	if cfg.Latency == nil {
		cfg.Latency = func(NodeID, NodeID, interface{ Intn(int) int }) sim.Duration {
			return sim.Millisecond
		}
	}
	if cfg.Sizer == nil {
		cfg.Sizer = func(any) int { return 1 }
	}
	return &SimNet{
		s:        s,
		cfg:      cfg,
		handlers: make(map[NodeID]Handler),
		downNode: make(map[NodeID]bool),
		downLink: make(map[[2]NodeID]bool),
	}
}

// Register implements Network.
func (n *SimNet) Register(id NodeID, h Handler) {
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("transport: node %q registered twice", id))
	}
	if h == nil {
		panic("transport: nil handler")
	}
	n.handlers[id] = h
}

// Send implements Network. The message is delivered after the configured
// latency unless a fault (drop, partition, node down) intervenes. Faults are
// evaluated at SEND time for drops and at DELIVERY time for partitions and
// node-down, approximating messages lost in flight.
func (n *SimNet) Send(from, to NodeID, payload any) {
	n.stats.Sent++
	n.stats.Bytes += uint64(n.cfg.Sizer(payload))
	rng := n.s.Rand()
	if n.cfg.DropProb > 0 && rng.Float64() < n.cfg.DropProb {
		n.stats.Dropped++
		return
	}
	deliver := func() {
		if n.downNode[from] || n.downNode[to] || n.downLink[[2]NodeID{from, to}] {
			n.stats.Dropped++
			return
		}
		h, ok := n.handlers[to]
		if !ok {
			n.stats.Dropped++
			return
		}
		n.stats.Delivered++
		h(Message{From: from, To: to, Payload: payload})
	}
	n.s.Schedule(n.cfg.Latency(from, to, rng), deliver)
	if n.cfg.DupProb > 0 && rng.Float64() < n.cfg.DupProb {
		n.stats.Duplicated++
		n.s.Schedule(n.cfg.Latency(from, to, rng), deliver)
	}
}

// Stats returns a snapshot of the counters.
func (n *SimNet) Stats() Stats { return n.stats }

// SetNodeDown marks a node crashed (messages to/from it are dropped at
// delivery time) or back up. Used by the §9.3 fault experiments.
func (n *SimNet) SetNodeDown(id NodeID, down bool) { n.downNode[id] = down }

// SetLinkDown partitions (or heals) the directed link from→to.
func (n *SimNet) SetLinkDown(from, to NodeID, down bool) {
	n.downLink[[2]NodeID{from, to}] = down
}

// PartitionBetween partitions every link between the two node groups in
// both directions (heal=false) or heals them (heal=true).
func (n *SimNet) PartitionBetween(a, b []NodeID, heal bool) {
	for _, x := range a {
		for _, y := range b {
			n.downLink[[2]NodeID{x, y}] = !heal
			n.downLink[[2]NodeID{y, x}] = !heal
		}
	}
}

// SetDropProb adjusts the loss probability mid-run (fault windows).
func (n *SimNet) SetDropProb(p float64) { n.cfg.DropProb = p }

// FixedLatency returns a deterministic latency function: d between two
// distinct nodes, regardless of direction.
func FixedLatency(d sim.Duration) func(NodeID, NodeID, interface{ Intn(int) int }) sim.Duration {
	return func(NodeID, NodeID, interface{ Intn(int) int }) sim.Duration { return d }
}

// UniformLatency returns a latency function uniform in [min, max]. The
// maximum is the paper's delivery bound d; the minimum models the fastest
// path.
func UniformLatency(min, max sim.Duration) func(NodeID, NodeID, interface{ Intn(int) int }) sim.Duration {
	if min > max || min < 0 {
		panic(fmt.Sprintf("transport: invalid latency range [%v, %v]", min, max))
	}
	return func(_, _ NodeID, rng interface{ Intn(int) int }) sim.Duration {
		if min == max {
			return min
		}
		return min + sim.Duration(rng.Intn(int(max-min)+1))
	}
}

// ClassLatency dispatches on node classes: gossip links (both endpoints
// satisfy isReplica) get dg, all other links get df. This realizes the
// paper's distinction between front-end↔replica delay d_f and
// replica↔replica delay d_g.
func ClassLatency(isReplica func(NodeID) bool, df, dg func(NodeID, NodeID, interface{ Intn(int) int }) sim.Duration) func(NodeID, NodeID, interface{ Intn(int) int }) sim.Duration {
	return func(from, to NodeID, rng interface{ Intn(int) int }) sim.Duration {
		if isReplica(from) && isReplica(to) {
			return dg(from, to, rng)
		}
		return df(from, to, rng)
	}
}

// --- LiveNet ---

// LiveNet is a goroutine-based in-process transport. Each node has an
// unbounded mailbox drained by a dedicated goroutine, so Send never blocks
// and cyclic communication between nodes cannot deadlock.
type LiveNet struct {
	mu     sync.Mutex
	nodes  map[NodeID]*mailbox
	inline map[NodeID]Handler
	closed bool
	wg     sync.WaitGroup
	stats  Stats
}

var (
	_ Network         = (*LiveNet)(nil)
	_ InlineRegistrar = (*LiveNet)(nil)
)

type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message
	handler Handler
	closed  bool
}

// NewLiveNet returns an empty live transport.
func NewLiveNet() *LiveNet {
	return &LiveNet{nodes: make(map[NodeID]*mailbox)}
}

// Register implements Network. It starts the node's delivery goroutine.
func (n *LiveNet) Register(id NodeID, h Handler) {
	if h == nil {
		panic("transport: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("transport: Register on closed LiveNet")
	}
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("transport: node %q registered twice", id))
	}
	if _, dup := n.inline[id]; dup {
		panic(fmt.Sprintf("transport: node %q registered twice", id))
	}
	mb := &mailbox{handler: h}
	mb.cond = sync.NewCond(&mb.mu)
	n.nodes[id] = mb
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		mb.run()
	}()
}

// enqueue appends a message for the node's delivery goroutine. It reports
// whether the message was accepted (false once the mailbox is closed).
func (mb *mailbox) enqueue(msg Message) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return false
	}
	mb.queue = append(mb.queue, msg)
	mb.cond.Signal()
	return true
}

func (mb *mailbox) run() {
	for {
		mb.mu.Lock()
		for len(mb.queue) == 0 && !mb.closed {
			mb.cond.Wait()
		}
		if len(mb.queue) == 0 && mb.closed {
			mb.mu.Unlock()
			return
		}
		m := mb.queue[0]
		mb.queue = mb.queue[1:]
		mb.mu.Unlock()
		mb.handler(m)
	}
}

// RegisterInline implements InlineRegistrar: messages for id are handed to
// h synchronously inside Send, with no mailbox goroutine in between.
func (n *LiveNet) RegisterInline(id NodeID, h Handler) {
	if h == nil {
		panic("transport: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("transport: RegisterInline on closed LiveNet")
	}
	if _, dup := n.nodes[id]; dup {
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

// Send implements Network. Messages to unregistered nodes are dropped
// (matching a network that discards undeliverable datagrams).
func (n *LiveNet) Send(from, to NodeID, payload any) {
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
	mb, ok := n.nodes[to]
	n.mu.Unlock()
	if !ok {
		return
	}
	if mb.enqueue(Message{From: from, To: to, Payload: payload}) {
		n.mu.Lock()
		n.stats.Delivered++
		n.mu.Unlock()
	}
}

// Close stops delivery: queued messages still drain, then the node
// goroutines exit. Close blocks until all handlers have finished.
func (n *LiveNet) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	nodes := make([]*mailbox, 0, len(n.nodes))
	for _, mb := range n.nodes {
		nodes = append(nodes, mb)
	}
	n.mu.Unlock()
	for _, mb := range nodes {
		mb.mu.Lock()
		mb.closed = true
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	n.wg.Wait()
}

// Stats returns a snapshot of the counters.
func (n *LiveNet) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}
