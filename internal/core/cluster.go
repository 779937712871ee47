package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// Cluster assembles n replicas and their front ends over a transport, and
// owns gossip scheduling. It works identically over the simulated network
// (deterministic, virtual time) and the live goroutine transport
// (wall-clock tickers).
type Cluster struct {
	mu       sync.Mutex
	dt       dtype.DataType
	net      transport.Network
	opt      Options
	shard    int
	replicas []*Replica
	nodes    []transport.NodeID
	fronts   map[string]*FrontEnd
	stops    []func()
	closed   bool

	// The flush set (DESIGN.md §8): the front ends with an open batch,
	// each once. A front end joins it itself (joinFlushSet) when its batch
	// opens; flushPass takes the set and puts back the members still open. flushWake holds a token once the set turns non-empty, so the
	// flusher sleeps, with no timer, while it is empty.
	flushMu     sync.Mutex
	flushSet    []*FrontEnd
	flushWake   chan struct{}
	flushPasses atomic.Uint64 // passes that visited at least one front end
}

// ClusterConfig configures a cluster.
type ClusterConfig struct {
	// Replicas is the number of data replicas (≥ 1; the paper assumes ≥ 2,
	// and with 1 every operation is trivially stable immediately).
	Replicas int
	// DataType is the serial data type the service manages.
	DataType dtype.DataType
	// Network carries all messages.
	Network transport.Network
	// Options selects the §10 optimizations.
	Options Options
	// Stores, if non-nil, supplies a per-replica stable store for the §9.3
	// crash-recovery protocol (indexed by replica id; nil entries allowed).
	Stores []StableStore
	// LocalReplicas, if non-nil, lists the replica ids instantiated in this
	// process. The remaining replicas are assumed to run in other processes
	// reachable through the same Network (a transport.TCPNet whose peer
	// table maps their ReplicaNode addresses). Nil means all replicas are
	// local — the single-process configuration of SimNet and LiveNet. An
	// empty (non-nil) slice builds a front-end-only member: no replica runs
	// here, but FrontEnd still works against the remote cluster.
	LocalReplicas []int
	// Shard places the cluster in a keyspace: all transport names (replica
	// and front-end nodes) are qualified by the shard index, so several
	// independent clusters can share one Network (see Keyspace). Shard 0 —
	// the default, and the only shard of an unsharded deployment — keeps
	// the legacy names.
	Shard int
	// Runtime, if non-nil, runs this cluster's replicas on the shard-per-core
	// worker pool: each replica's messages flow through a per-replica inbound
	// queue drained by the worker that owns the cluster's shard, and ticker
	// work (gossip rounds) is dispatched onto the same worker. Nil keeps the
	// legacy per-mailbox path (required with SimNet, whose determinism the
	// pool would break). The caller owns the runtime and closes it after the
	// transport.
	Runtime *ShardRuntime
}

// NewCluster builds the replicas and registers them on the network. Gossip
// is not started; call StartSimGossip / StartLiveGossip or drive rounds
// manually with GossipAll.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Replicas < 1 || cfg.Replicas > MaxReplicas {
		panic(fmt.Sprintf("core: invalid replica count %d (1 to %d)", cfg.Replicas, MaxReplicas))
	}
	if cfg.DataType == nil {
		panic("core: nil data type")
	}
	if cfg.Network == nil {
		panic("core: nil network")
	}
	if cfg.Shard < 0 {
		panic(fmt.Sprintf("core: invalid shard index %d", cfg.Shard))
	}
	nodes := make([]transport.NodeID, cfg.Replicas)
	for i := range nodes {
		nodes[i] = ReplicaNodeIn(cfg.Shard, label.ReplicaID(i))
	}
	c := &Cluster{
		dt:        cfg.DataType,
		net:       cfg.Network,
		opt:       cfg.Options,
		shard:     cfg.Shard,
		nodes:     nodes,
		fronts:    make(map[string]*FrontEnd),
		flushWake: make(chan struct{}, 1),
	}
	local := make([]bool, cfg.Replicas)
	if cfg.LocalReplicas == nil {
		for i := range local {
			local[i] = true
		}
	} else {
		for _, i := range cfg.LocalReplicas {
			if i < 0 || i >= cfg.Replicas {
				panic(fmt.Sprintf("core: local replica id %d out of range [0, %d)", i, cfg.Replicas))
			}
			local[i] = true
		}
	}
	c.replicas = make([]*Replica, cfg.Replicas)
	for i := range c.replicas {
		if !local[i] {
			continue
		}
		var store StableStore
		if i < len(cfg.Stores) {
			store = cfg.Stores[i]
		}
		c.replicas[i] = NewReplica(ReplicaConfig{
			ID:       label.ReplicaID(i),
			Peers:    nodes,
			DataType: cfg.DataType,
			Network:  cfg.Network,
			Options:  cfg.Options,
			Store:    store,
			Shard:    cfg.Shard,
			Runtime:  cfg.Runtime,
		})
	}
	return c
}

// Replica returns replica i, or nil when replica i lives in another
// process (see ClusterConfig.LocalReplicas).
func (c *Cluster) Replica(i int) *Replica { return c.replicas[i] }

// LocalReplicas returns the replicas instantiated in this process.
func (c *Cluster) LocalReplicas() []*Replica {
	out := make([]*Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Nodes returns the replica transport addresses.
func (c *Cluster) Nodes() []transport.NodeID {
	return append([]transport.NodeID(nil), c.nodes...)
}

// FrontEnd returns the front end for the named client, creating and
// registering it on first use. After Close it returns an already-closed
// front end whose operations fail immediately with ErrClosed, so a late
// caller cannot block forever.
func (c *Cluster) FrontEnd(client string) *FrontEnd {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fe, ok := c.fronts[client]; ok {
		return fe
	}
	cfg := FrontEndConfig{Client: client, Replicas: c.nodes, Network: c.net, Shard: c.shard, Options: c.opt}
	if c.closed {
		fe := newFrontEnd(cfg, false) // the transport may be closed too
		fe.Close(ErrClosed)
		c.fronts[client] = fe
		return fe
	}
	fe := NewFrontEnd(cfg)
	fe.join = c.joinFlushSet
	c.fronts[client] = fe
	return fe
}

// RetransmitAll re-sends every pending request of every front end this
// cluster has created, and returns the number of requests re-sent. It is
// the cluster-wide form of FrontEnd.Retransmit — the paper's §6.2 liveness
// mechanism against message loss and crashed replicas.
func (c *Cluster) RetransmitAll() int {
	c.mu.Lock()
	fes := make([]*FrontEnd, 0, len(c.fronts))
	for _, fe := range c.fronts {
		fes = append(fes, fe)
	}
	c.mu.Unlock()
	total := 0
	for _, fe := range fes {
		total += fe.Retransmit()
	}
	return total
}

// StartLiveRetransmit starts a wall-clock ticker that retransmits every
// pending request each period. Without it, a request or response lost by
// the transport leaves its SubmitWait caller blocked until Close. Call
// Close to stop the ticker.
func (c *Cluster) StartLiveRetransmit(period time.Duration) {
	if period <= 0 {
		panic(fmt.Sprintf("core: invalid retransmit period %v", period))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		panic("core: StartLiveRetransmit on closed cluster")
	}
	c.every(period, func() { c.RetransmitAll() })
}

// spawn runs loop in its own goroutine and registers the stop function
// Close calls: it closes done and returns only once loop has returned.
// Mutex held.
func (c *Cluster) spawn(loop func(done <-chan struct{})) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop(done)
	}()
	c.stops = append(c.stops, func() {
		close(done)
		wg.Wait()
	})
}

// every runs fn on a wall-clock ticker until Close. Mutex held.
func (c *Cluster) every(period time.Duration, fn func()) {
	c.spawn(func(done <-chan struct{}) {
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				fn()
			case <-done:
				return
			}
		}
	})
}

// joinFlushSet adds fe to the flush set and wakes the flusher if the set
// was empty. fe's mutex is held (the lock order is fe.mu, then flushMu).
func (c *Cluster) joinFlushSet(fe *FrontEnd) {
	c.flushMu.Lock()
	c.flushSet = append(c.flushSet, fe)
	first := len(c.flushSet) == 1
	c.flushMu.Unlock()
	if first {
		c.wakeFlusher()
	}
}

// wakeFlusher leaves a token for a sleeping flusher; one pending token is
// enough.
func (c *Cluster) wakeFlusher() {
	select {
	case c.flushWake <- struct{}{}:
	default:
	}
}

// flushPass is one tick of the batch flusher: it takes the flush set, runs
// one flush tick (FrontEnd.Flush) for each member and puts back those whose
// batch is still open. It reports whether the set is non-empty afterwards.
func (c *Cluster) flushPass() bool {
	c.flushMu.Lock()
	due := c.flushSet
	c.flushSet = nil
	c.flushMu.Unlock()
	if len(due) == 0 {
		return false
	}
	c.flushPasses.Add(1)
	keep := due[:0]
	for _, fe := range due {
		if fe.flush(true) {
			keep = append(keep, fe)
		}
	}
	clear(due[len(keep):])
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	if len(keep) == 0 {
		return len(c.flushSet) > 0
	}
	if len(c.flushSet) == 0 {
		c.flushSet = keep
		// A concurrent pass (FlushAll beside the flusher) may have let the
		// flusher park on the set this pass held.
		c.wakeFlusher()
	} else {
		c.flushSet = append(c.flushSet, keep...)
	}
	return true
}

// FlushAll runs one flush tick for every front end with an open batch (see
// FrontEnd.Flush). A no-op when batching is off.
func (c *Cluster) FlushAll() { c.flushPass() }

// StartLiveBatchFlush starts the cluster's batch flusher: every period it
// runs one flush tick for each front end in the flush set — the
// Options.BatchDelay bound on how long a buffered submission waits for its
// batch to fill — and it sleeps, with no timer running, while no front end
// has an open batch. Call Close to stop it. Meaningless (but harmless)
// without batching.
func (c *Cluster) StartLiveBatchFlush(period time.Duration) {
	if period <= 0 {
		panic(fmt.Sprintf("core: invalid batch-flush period %v", period))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		panic("core: StartLiveBatchFlush on closed cluster")
	}
	c.spawn(func(done <-chan struct{}) {
		for {
			select {
			case <-c.flushWake:
			case <-done:
				return
			}
			ticker := time.NewTicker(period)
			for busy := true; busy; {
				select {
				case <-ticker.C:
					busy = c.flushPass()
				case <-done:
					ticker.Stop()
					return
				}
			}
			ticker.Stop()
		}
	})
}

// GossipAll runs one gossip round: every local replica sends to every peer.
func (c *Cluster) GossipAll() {
	for _, r := range c.replicas {
		if r != nil {
			r.SendGossip()
		}
	}
}

// StartSimGossip schedules a gossip round for each replica every period of
// virtual time — the timing assumption "at least one send_rr' in every
// interval of length g" (§9.1). Rounds are staggered one event apart but at
// the same virtual instants.
func (c *Cluster) StartSimGossip(s *sim.Sim, period sim.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		if r == nil {
			continue
		}
		r := r
		c.stops = append(c.stops, s.Every(period, r.SendGossip))
	}
}

// StartLiveGossip starts a wall-clock gossip ticker per replica. Call Close
// to stop the tickers.
func (c *Cluster) StartLiveGossip(period time.Duration) {
	if period <= 0 {
		panic(fmt.Sprintf("core: invalid gossip period %v", period))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		panic("core: StartLiveGossip on closed cluster")
	}
	for _, r := range c.replicas {
		if r == nil {
			continue
		}
		r := r
		// Under the shard-per-core runtime the round runs on the replica's
		// owning worker, serialized with its message handling; Dispatch
		// degrades to a direct call otherwise.
		c.every(period, func() { r.Dispatch(r.SendGossip) })
	}
}

// Close stops all gossip and retransmit schedulers, then fails every
// outstanding front-end waiter with ErrClosed — a SubmitWait blocked on a
// response that will never come returns instead of leaking its goroutine.
// It does not close the transport (the caller owns it). Close is
// idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	stops := c.stops
	c.stops = nil
	c.closed = true
	fes := make([]*FrontEnd, 0, len(c.fronts))
	for _, fe := range c.fronts {
		fes = append(fes, fe)
	}
	c.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	for _, fe := range fes {
		fe.Close(ErrClosed)
	}
}

// Faults aggregates the typed faults recorded by every local replica:
// inputs rejected because accepting them would violate an algorithm
// invariant (see FaultCode). An operator alerting on a non-empty Faults is
// the production posture; tests assert it stays empty under honest chaos.
func (c *Cluster) Faults() []error {
	var out []error
	for _, r := range c.replicas {
		if r != nil {
			out = append(out, r.Faults()...)
		}
	}
	return out
}

// TotalMetrics sums the metrics of all local replicas.
func (c *Cluster) TotalMetrics() ReplicaMetrics {
	var total ReplicaMetrics
	for _, r := range c.replicas {
		if r != nil {
			total.Add(r.Metrics())
		}
	}
	return total
}

// Convergence describes the cluster-wide agreement state at a quiescent
// moment (no messages in flight): whether all replicas have the same done
// set and the same label for every operation, and if so, the eventual total
// order (ids sorted by the agreed labels — the paper's minlabel order).
type Convergence struct {
	Converged bool
	Reason    string   // why not converged, when Converged is false
	Order     []ops.ID // eventual total order (valid when Converged)
}

// CheckConvergence inspects all replicas. It is meaningful only when the
// system is quiescent; mid-flight it simply reports non-convergence.
func (c *Cluster) CheckConvergence() Convergence {
	snaps := make([]DebugSnapshot, len(c.replicas))
	for i, r := range c.replicas {
		if r == nil {
			// Remote replicas cannot be inspected from this process; a
			// cluster-wide convergence check needs an all-local cluster.
			return Convergence{Reason: fmt.Sprintf("replica %d is remote", i)}
		}
		snaps[i] = r.Snapshot()
	}
	base := snaps[0]
	// Done sets must agree element-wise: two replicas can hold equal-size
	// but different done sets (each did its own clients' operations), so a
	// length comparison alone is a false positive.
	baseDone := make(map[ops.ID]struct{}, len(base.Done))
	for _, id := range base.Done {
		baseDone[id] = struct{}{}
	}
	for i := 1; i < len(snaps); i++ {
		if len(snaps[i].Done) != len(base.Done) {
			return Convergence{Reason: fmt.Sprintf("replica %d has %d done ops, replica 0 has %d",
				i, len(snaps[i].Done), len(base.Done))}
		}
		for _, id := range snaps[i].Done {
			if _, ok := baseDone[id]; !ok {
				return Convergence{Reason: fmt.Sprintf("replica %d has %v done, replica 0 does not",
					i, id)}
			}
		}
	}
	// Labels must agree on the union of ids.
	for id, l := range base.Labels {
		for i := 1; i < len(snaps); i++ {
			if got := snaps[i].Labels[id]; got != l {
				return Convergence{Reason: fmt.Sprintf("label of %v: replica 0 has %v, replica %d has %v",
					id, l, i, got)}
			}
		}
	}
	for i := 1; i < len(snaps); i++ {
		if len(snaps[i].Labels) != len(base.Labels) {
			return Convergence{Reason: fmt.Sprintf("replica %d knows %d labels, replica 0 knows %d",
				i, len(snaps[i].Labels), len(base.Labels))}
		}
	}
	order := append([]ops.ID(nil), base.Done...)
	sort.Slice(order, func(a, b int) bool {
		la, lb := base.Labels[order[a]], base.Labels[order[b]]
		return la.Less(lb)
	})
	return Convergence{Converged: true, Order: order}
}
