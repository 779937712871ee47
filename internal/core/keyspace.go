package core

import (
	"fmt"
	"sync"
	"time"

	"esds/internal/dtype"
	"esds/internal/placement"
	"esds/internal/ring"
	"esds/internal/sim"
	"esds/internal/transport"
)

// Keyspace shards a namespace of independent objects across N independent
// ESDS clusters sharing one transport. Each shard replicates the keyed
// lift of the inner data type (dtype.Keyed): many named objects, one
// eventual total order per shard. Objects are routed to shards by a
// consistent-hash ring, so growing the shard count remaps only ~1/N of
// the namespace — and Resize performs that growth online, migrating
// exactly the remapped keys with no downtime (see resize.go and
// DESIGN.md §7).
//
// The paper's algorithm — and all its guarantees — applies per shard;
// cross-shard operations have no ordering relationship, which is exactly
// the independence the keyed data type exposes (§10.3 terms: operations
// on distinct objects commute and are mutually oblivious).
type Keyspace struct {
	mu    sync.Mutex
	inner dtype.DataType
	cfg   KeyspaceConfig // retained for online growth

	shards []*Cluster
	// curRing routes new submissions; epoch counts completed resizes. Both
	// advance only when a resize COMPLETES — during a migration the old
	// ring stays authoritative and per-key redirects funnel moved keys.
	curRing ring.Ring
	epoch   int

	// migrated records keys moved by resizes: their destination shard and
	// the KeyInstall that seeded them. Used to route new submissions
	// mid-resize, to translate stale prev references, and (on client-side
	// keyspaces) learned incrementally from Redirect replies.
	migrated map[string]migratedEntry

	resizing bool
	clients  map[string]*KeyspaceClient

	// place is the keyspace's shard→member placement view (nil without
	// placement), extended in step with shard growth so resize-created
	// shards get deterministic hosts too. knownMembers is the largest fleet
	// size this keyspace has seen — its own placement's, or one surfaced by
	// a wrong-member Redirect — so the stale-placement hook fires once per
	// epoch, not once per refused frame.
	place        *placement.Placement
	knownMembers int

	// Ticker periods recorded so clusters created by online growth start
	// the same schedulers the original shards run.
	gossipPeriod     time.Duration
	retransmitPeriod time.Duration
	batchFlushPeriod time.Duration

	// Resize driver plumbing (see resize.go).
	ctlNode  transport.NodeID
	ctlAcks  chan any
	mmetrics MigrationMetrics
}

// migratedEntry is the keyspace's routing view of one moved key.
type migratedEntry struct {
	epoch int
	shard int
	mk    MigratedKey
}

// KeyspaceConfig assembles a keyspace.
type KeyspaceConfig struct {
	// Shards is the number of independent ESDS clusters (≥ 1).
	Shards int
	// Replicas is the number of data replicas per shard.
	Replicas int
	// DataType is the serial type of each named object; every shard
	// replicates dtype.NewKeyed(DataType).
	DataType dtype.DataType
	// Network carries all shards' messages (shard-qualified node names keep
	// them apart).
	Network transport.Network
	// Options selects the §10 optimizations, applied to every shard.
	Options Options
	// LocalReplicas lists the replica ids this process hosts, for every
	// shard (see ClusterConfig.LocalReplicas). Nil means all replicas of
	// all shards are local.
	LocalReplicas []int
	// StoreFor, if non-nil, supplies the stable store for a given (shard,
	// replica) pair — recovery state is per shard because operation
	// identifiers are only unique within one (clients count sequence
	// numbers per object's shard). Returning nil leaves that replica
	// without a store. Also invoked for shards created by online growth.
	StoreFor func(shard, replica int) StableStore
	// OnGrow, if non-nil, runs before clusters for shards [oldShards,
	// newShards) are built — the hook a TCP deployment uses to extend its
	// peer table with the new shards' replica addresses (member i hosts
	// replica i of every shard, so the addresses are already known).
	OnGrow func(oldShards, newShards int)
	// Runtime, if non-nil, runs every shard's replicas on the shard-per-core
	// worker pool (see ClusterConfig.Runtime). Shards created by online
	// growth attach to the same pool, pinned to their worker by the shard
	// index — so a resize destination is owned by a (generally) different
	// worker than its sources, preserving cross-shard independence as the
	// keyspace grows.
	Runtime *ShardRuntime
	// Placement, if non-nil, assigns each shard's replica slots to fleet
	// members (internal/placement, DESIGN.md §13) and — together with
	// Member — replaces the uniform LocalReplicas with a PER-SHARD set:
	// this process hosts exactly the slots Placement.Slots(shard, Member)
	// of each shard, and builds front-end-only clusters for the rest. Its
	// geometry must match Shards and Replicas. On a transport.ShardSubscriber
	// network (a TCPNet fleet member) the hosted shard set is announced as
	// the gossip subscription, and on a transport.FallbackRegistrar network
	// misrouted request frames are answered with wrong-member Redirects.
	Placement *placement.Placement
	// Member is this process's index in Placement's member set. Use -1 for
	// a client-only process that hosts nothing. Ignored without Placement.
	Member int
	// OnStalePlacement, if non-nil, fires (outside keyspace locks, at most
	// once per distinct fleet size) when a wrong-member Redirect reveals
	// the fleet runs a placement with more members than this keyspace was
	// built with. The hook re-points the peer table — typically
	// ApplyPlacement(net, Placement.Grow(members), addrs) — after which
	// retransmission delivers the refused operations to the right members.
	OnStalePlacement func(members int)
}

// NewKeyspace builds one cluster per shard over the shared network.
func NewKeyspace(cfg KeyspaceConfig) *Keyspace {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("core: invalid shard count %d", cfg.Shards))
	}
	if cfg.Replicas < 1 || cfg.Replicas > MaxReplicas {
		panic(fmt.Sprintf("core: invalid replica count %d (1 to %d)", cfg.Replicas, MaxReplicas))
	}
	if cfg.DataType == nil {
		panic("core: nil data type")
	}
	k := &Keyspace{
		inner:    cfg.DataType,
		cfg:      cfg,
		curRing:  ring.New(cfg.Shards),
		migrated: make(map[string]migratedEntry),
		clients:  make(map[string]*KeyspaceClient),
	}
	if cfg.Placement != nil {
		if cfg.Placement.Shards() != cfg.Shards || cfg.Placement.Replicas() != cfg.Replicas {
			panic(fmt.Sprintf("core: placement geometry %dx%d does not match keyspace %dx%d",
				cfg.Placement.Shards(), cfg.Placement.Replicas(), cfg.Shards, cfg.Replicas))
		}
		if cfg.Member >= cfg.Placement.Members() {
			panic(fmt.Sprintf("core: member %d out of placement's %d members", cfg.Member, cfg.Placement.Members()))
		}
		k.place = cfg.Placement
		k.knownMembers = cfg.Placement.Members()
	}
	for s := 0; s < cfg.Shards; s++ {
		k.shards = append(k.shards, k.buildShard(s))
	}
	k.announcePlacement()
	return k
}

// buildShard constructs the cluster for shard s from the saved config.
// Under placement the shard's local replica set is its placement row
// restricted to this member — possibly empty, a front-end-only cluster for
// a shard hosted elsewhere — and stores are created only for hosted slots.
func (k *Keyspace) buildShard(s int) *Cluster {
	localReplicas := k.cfg.LocalReplicas
	if k.place != nil {
		if s >= k.place.Shards() {
			// A resize outgrew the placement: extend it (deterministic, so
			// every member computes the same hosts for the new shards).
			k.place = k.place.Extend(s + 1)
		}
		localReplicas = k.place.Slots(s, k.cfg.Member)
		if localReplicas == nil {
			localReplicas = []int{}
		}
	}
	var stores []StableStore
	if k.cfg.StoreFor != nil {
		stores = make([]StableStore, k.cfg.Replicas)
		if k.place != nil {
			for _, i := range localReplicas {
				stores[i] = k.cfg.StoreFor(s, i)
			}
		} else {
			for i := range stores {
				stores[i] = k.cfg.StoreFor(s, i)
			}
		}
	}
	return NewCluster(ClusterConfig{
		Replicas:      k.cfg.Replicas,
		DataType:      dtype.NewKeyed(k.cfg.DataType),
		Network:       k.cfg.Network,
		Options:       k.cfg.Options,
		Stores:        stores,
		LocalReplicas: localReplicas,
		Shard:         s,
		Runtime:       k.cfg.Runtime,
	})
}

// EnsureShards grows the keyspace to at least n shard clusters WITHOUT
// changing routing: new clusters join the transport (with the same
// schedulers the existing shards run) but receive keys only through the
// migration protocol or a later ring advance. It is how the resize driver
// creates destinations, and how a client-side keyspace follows a resize
// it learns about from Redirect replies.
func (k *Keyspace) EnsureShards(n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ensureShardsLocked(n)
}

func (k *Keyspace) ensureShardsLocked(n int) {
	if n <= len(k.shards) {
		return
	}
	if k.cfg.OnGrow != nil {
		k.cfg.OnGrow(len(k.shards), n)
	}
	for s := len(k.shards); s < n; s++ {
		c := k.buildShard(s)
		if k.gossipPeriod > 0 {
			c.StartLiveGossip(k.gossipPeriod)
		}
		if k.retransmitPeriod > 0 {
			c.StartLiveRetransmit(k.retransmitPeriod)
		}
		if k.batchFlushPeriod > 0 {
			c.StartLiveBatchFlush(k.batchFlushPeriod)
		}
		k.shards = append(k.shards, c)
	}
	// Growth may have extended the placement with shards this member hosts:
	// re-announce the subscription so peers stop suppressing them.
	k.announceSubscriptionLocked()
}

// NumShards returns the shard count (including destinations of an
// in-progress resize).
func (k *Keyspace) NumShards() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.shards)
}

// Epoch returns the number of completed resizes.
func (k *Keyspace) Epoch() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.epoch
}

// Shard returns shard s's cluster.
func (k *Keyspace) Shard(s int) *Cluster {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.shards[s]
}

// snapshotShards returns the current shard slice for iteration without
// holding the lock during per-cluster work.
func (k *Keyspace) snapshotShards() []*Cluster {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]*Cluster(nil), k.shards...)
}

// ShardOf routes an object name to the shard a NEW submission for it
// targets: its migration destination if it has moved, otherwise its owner
// on the current ring.
func (k *Keyspace) ShardOf(object string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.routeLocked(object)
}

// routeLocked picks the target shard for a new submission on object:
// a migration destination takes precedence (the entry is written only
// after the key's install is stable at every destination replica, so the
// destination is safe to use immediately); otherwise the current ring.
func (k *Keyspace) routeLocked(object string) int {
	if e, ok := k.migrated[object]; ok {
		return e.shard
	}
	return k.curRing.ShardOf(object)
}

// installFor reports the KeyInstall that seeded a moved object, for
// translating prev references to source-era operations.
func (k *Keyspace) installFor(object string) (MigratedKey, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.migrated[object]
	return e.mk, ok
}

// learnRedirect folds a Final Redirect into the keyspace's routing view —
// how a client-side keyspace (no local driver) follows someone else's
// resize. Newer epochs win; the destination cluster is created on demand
// (front-end-only when this process hosts no replicas).
func (k *Keyspace) learnRedirect(object string, rd Redirect) {
	if !rd.Final {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if e, ok := k.migrated[object]; ok && e.epoch >= rd.Epoch {
		return
	}
	k.ensureShardsLocked(rd.Shards)
	k.migrated[object] = migratedEntry{
		epoch: rd.Epoch,
		shard: ring.New(rd.Shards).ShardOf(object),
		mk:    MigratedKey{Key: object, HasInstall: rd.HasInstall, InstallID: rd.InstallID},
	}
	// A completed epoch newer than ours also advances the routing ring:
	// every key the newer ring owns elsewhere is either migrated (Final
	// redirects exist) or fresh (its owner under the new ring is
	// authoritative).
	if rd.Epoch > k.epoch {
		k.epoch = rd.Epoch
		k.curRing = ring.New(rd.Shards)
	}
}

// replicasPerShard returns the replica count of every shard (uniform).
func (k *Keyspace) replicasPerShard() int { return k.cfg.Replicas }

// FrontEnd returns the front end for the named client on the shard that
// owns the named object. Submit operators wrapped as
// dtype.KeyedOp{Key: object} through it; WrapOp does this.
//
// FrontEnd is the resize-oblivious fast path: it routes by the ring at
// call time and never re-routes. Clients that must survive a live resize
// use Keyspace.Client (the KeyspaceClient router) instead.
func (k *Keyspace) FrontEnd(object, client string) *FrontEnd {
	k.mu.Lock()
	c := k.shards[k.routeLocked(object)]
	k.mu.Unlock()
	return c.FrontEnd(client)
}

// WrapOp addresses an inner operator to a named object.
func (k *Keyspace) WrapOp(object string, op dtype.Operator) dtype.Operator {
	return dtype.KeyedOp{Key: object, Op: op}
}

// GossipAll runs one gossip round on every shard.
func (k *Keyspace) GossipAll() {
	for _, c := range k.snapshotShards() {
		c.GossipAll()
	}
}

// StartSimGossip schedules gossip for every shard on the simulator.
// (Simulated keyspaces cannot Resize — the driver needs wall-clock
// schedulers — so growth does not re-invoke this.)
func (k *Keyspace) StartSimGossip(s *sim.Sim, period sim.Duration) {
	for _, c := range k.snapshotShards() {
		c.StartSimGossip(s, period)
	}
}

// StartLiveGossip starts wall-clock gossip tickers on every shard, and on
// every shard online growth adds later.
func (k *Keyspace) StartLiveGossip(period time.Duration) {
	k.mu.Lock()
	k.gossipPeriod = period
	shards := append([]*Cluster(nil), k.shards...)
	k.mu.Unlock()
	for _, c := range shards {
		c.StartLiveGossip(period)
	}
}

// StartLiveRetransmit starts wall-clock retransmission tickers on every
// shard (see Cluster.StartLiveRetransmit), and on every shard online
// growth adds later.
func (k *Keyspace) StartLiveRetransmit(period time.Duration) {
	k.mu.Lock()
	k.retransmitPeriod = period
	shards := append([]*Cluster(nil), k.shards...)
	k.mu.Unlock()
	for _, c := range shards {
		c.StartLiveRetransmit(period)
	}
}

// StartLiveBatchFlush starts the batch flusher of every shard (see
// Cluster.StartLiveBatchFlush), and of every shard online growth adds
// later. Meaningless (but harmless) without batching.
func (k *Keyspace) StartLiveBatchFlush(period time.Duration) {
	k.mu.Lock()
	k.batchFlushPeriod = period
	shards := append([]*Cluster(nil), k.shards...)
	k.mu.Unlock()
	for _, c := range shards {
		c.StartLiveBatchFlush(period)
	}
}

// RetransmitAll re-sends every pending request on every shard.
func (k *Keyspace) RetransmitAll() int {
	total := 0
	for _, c := range k.snapshotShards() {
		total += c.RetransmitAll()
	}
	return total
}

// Close closes every shard: schedulers stop and outstanding waiters fail
// with ErrClosed. Operations a KeyspaceClient holds parked behind a
// migration fail the same way.
func (k *Keyspace) Close() {
	k.mu.Lock()
	shards := append([]*Cluster(nil), k.shards...)
	clients := make([]*KeyspaceClient, 0, len(k.clients))
	for _, c := range k.clients {
		clients = append(clients, c)
	}
	k.mu.Unlock()
	for _, c := range clients {
		c.close(ErrClosed)
	}
	for _, c := range shards {
		c.Close()
	}
}

// Faults aggregates the typed faults of every shard's local replicas.
func (k *Keyspace) Faults() []error {
	var out []error
	for _, c := range k.snapshotShards() {
		out = append(out, c.Faults()...)
	}
	return out
}

// TotalMetrics sums the metrics of all local replicas across all shards —
// the keyspace-wide aggregate.
func (k *Keyspace) TotalMetrics() ReplicaMetrics {
	var total ReplicaMetrics
	for _, c := range k.snapshotShards() {
		total.Add(c.TotalMetrics())
	}
	return total
}

// MigrationMetrics returns the resize counters.
func (k *Keyspace) MigrationMetrics() MigrationMetrics {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.mmetrics
}

// CheckConvergence checks every shard (meaningful only at quiescence, like
// Cluster.CheckConvergence). The keyspace is converged when every shard is.
func (k *Keyspace) CheckConvergence() Convergence {
	for s, c := range k.snapshotShards() {
		conv := c.CheckConvergence()
		if !conv.Converged {
			conv.Reason = fmt.Sprintf("shard %d: %s", s, conv.Reason)
			return conv
		}
	}
	return Convergence{Converged: true}
}
