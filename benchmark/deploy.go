package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/transport"
)

// Protocol timers of every deployment. There is no injected network delay
// (loopback sockets or in-process mailboxes), so latency is processor time
// plus these timers; they are printed in the run header.
const (
	gossipInterval     = 5 * time.Millisecond
	batchDelay         = time.Millisecond
	retransmitInterval = 250 * time.Millisecond
	batchSize          = 32
	replicasPerGroup   = 3
	keyspaceShards     = 4
)

// deployment is one running service built from internal/core the way
// esds.New and esds-server wire it (gossip, retransmit and batch-flush
// tickers on). esds.New itself cannot be used: it does not accept a
// transport.Network, and the traced run has to wrap one.
type deployment struct {
	// client returns the submission surface for a client (a front end, or a
	// keyspace session router).
	client func(name string) core.Submitter
	// wrap addresses an operator to a named object (identity when unsharded).
	wrap func(object string, op dtype.Operator) dtype.Operator
	// groups holds the replicas of each independent total order: one group
	// for a cluster, one per shard for a keyspace.
	groups [][]*core.Replica
	// serial is the data type one group replicates, for the audit's replay.
	serial dtype.DataType
	// flush pushes partially filled front-end batches out now.
	flush func()

	tcp     []*transport.TCPNet
	live    *transport.LiveNet
	stores  []*core.FileStableStore
	journal []string
	closers []func() // run in order by close
}

func (d *deployment) close() {
	for _, f := range d.closers {
		f()
	}
}

// replicas returns every replica of every group.
func (d *deployment) replicas() []*core.Replica {
	var out []*core.Replica
	for _, g := range d.groups {
		out = append(out, g...)
	}
	return out
}

// netStats sums the transports' counters: real frame bytes on TCP, frame
// counts only on LiveNet (it has no wire).
func (d *deployment) netStats() transport.Stats {
	var out transport.Stats
	add := func(s transport.Stats) {
		out.Sent += s.Sent
		out.Dropped += s.Dropped
		out.Bytes += s.Bytes
		out.Flushes += s.Flushes
	}
	for _, n := range d.tcp {
		add(n.Stats())
	}
	if d.live != nil {
		add(d.live.Stats())
	}
	return out
}

// journalBytes is the total size of the replicas' journals.
func (d *deployment) journalBytes() int64 {
	var total int64
	for _, p := range d.journal {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// buildTCP starts 3 replicas, each on its own loopback TCPNet, plus one
// client-side TCPNet — the in-process equivalent of four OS processes. With
// journalDir set every replica journals to a fsyncing FileStableStore there.
func buildTCP(opt core.Options, dt dtype.DataType, journalDir string, tr *tracer) (*deployment, error) {
	core.RegisterWire()
	d := &deployment{serial: dt, wrap: func(_ string, op dtype.Operator) dtype.Operator { return op }}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	closeNets := func() {
		for _, n := range d.tcp {
			n.Close()
		}
	}
	closeStores := func() {
		for _, st := range d.stores {
			st.Close()
		}
	}
	// Teardown order matches esds-server: tickers and front ends first, then
	// the journals, then the sockets.
	closeClusters := func() {}
	d.closers = []func(){func() { closeClusters() }, closeStores, closeNets}

	addrs := make([]string, replicasPerGroup)
	for i := 0; i < replicasPerGroup; i++ {
		n, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			return fail(err)
		}
		d.tcp = append(d.tcp, n)
		addrs[i] = n.Addr().String()
	}
	var clusters []*core.Cluster
	group := make([]*core.Replica, replicasPerGroup)
	for i := 0; i < replicasPerGroup; i++ {
		var stores []core.StableStore
		if journalDir != "" {
			path := filepath.Join(journalDir, fmt.Sprintf("r%d.journal", i))
			st, err := core.OpenFileStableStore(path)
			if err != nil {
				return fail(err)
			}
			d.stores = append(d.stores, st)
			d.journal = append(d.journal, path)
			stores = make([]core.StableStore, replicasPerGroup)
			stores[i] = tr.store(st)
		}
		for j := 0; j < replicasPerGroup; j++ {
			if j != i {
				d.tcp[i].SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
			}
		}
		c := core.NewCluster(core.ClusterConfig{
			Replicas:      replicasPerGroup,
			DataType:      tr.dtype(dt),
			Network:       tr.net(d.tcp[i]),
			Options:       opt,
			Stores:        stores,
			LocalReplicas: []int{i},
		})
		d.tcp[i].Start()
		clusters = append(clusters, c)
		group[i] = c.Replica(i)
	}
	d.groups = [][]*core.Replica{group}

	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return fail(err)
	}
	d.tcp = append(d.tcp, feNet)
	for j := 0; j < replicasPerGroup; j++ {
		feNet.SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
	}
	fe := core.NewCluster(core.ClusterConfig{
		Replicas:      replicasPerGroup,
		DataType:      dt,
		Network:       tr.net(feNet),
		Options:       opt,
		LocalReplicas: []int{},
	})
	feNet.Start()
	closeClusters = func() {
		fe.Close()
		for _, c := range clusters {
			c.Close()
		}
	}
	for _, c := range clusters {
		c.StartLiveGossip(gossipInterval)
	}
	fe.StartLiveRetransmit(retransmitInterval)
	if opt.BatchSize > 1 {
		fe.StartLiveBatchFlush(opt.FlushPeriod())
	}
	d.client = func(name string) core.Submitter { return fe.FrontEnd(name) }
	d.flush = fe.FlushAll
	return d, nil
}

// buildLive starts an unsharded 3-replica cluster on LiveNet, as esds.New
// does for Config.Shards ≤ 1.
func buildLive(opt core.Options, dt dtype.DataType, tr *tracer) *deployment {
	net := transport.NewLiveNet()
	c := core.NewCluster(core.ClusterConfig{
		Replicas: replicasPerGroup,
		DataType: tr.dtype(dt),
		Network:  tr.net(net),
		Options:  opt,
	})
	c.StartLiveGossip(gossipInterval)
	c.StartLiveRetransmit(retransmitInterval)
	if opt.BatchSize > 1 {
		c.StartLiveBatchFlush(opt.FlushPeriod())
	}
	return &deployment{
		client:  func(name string) core.Submitter { return c.FrontEnd(name) },
		wrap:    func(_ string, op dtype.Operator) dtype.Operator { return op },
		groups:  [][]*core.Replica{c.LocalReplicas()},
		serial:  dt,
		flush:   c.FlushAll,
		live:    net,
		closers: []func(){c.Close, net.Close},
	}
}

// buildKeyspace starts 4 shards × 3 replicas on LiveNet under the
// shard-per-core runtime, as esds.New does for Config.Shards ≥ 2. The
// keyspace lifts the inner type with dtype.NewKeyed itself, so a traced
// inner type sees the inner Apply only; Keyed's map copy is measured by an
// isolated probe (dtype.keyed_apply_ns).
func buildKeyspace(opt core.Options, inner dtype.DataType, tr *tracer) *deployment {
	net := transport.NewLiveNet()
	rt := core.NewShardRuntime(0)
	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards:   keyspaceShards,
		Replicas: replicasPerGroup,
		DataType: tr.dtype(inner),
		Network:  tr.net(net),
		Options:  opt,
		Runtime:  rt,
	})
	ks.StartLiveGossip(gossipInterval)
	ks.StartLiveRetransmit(retransmitInterval)
	if opt.BatchSize > 1 {
		ks.StartLiveBatchFlush(opt.FlushPeriod())
	}
	d := &deployment{
		client: func(name string) core.Submitter { return ks.Client(name) },
		wrap:   ks.WrapOp,
		serial: dtype.NewKeyed(inner),
		flush: func() {
			for s := 0; s < ks.NumShards(); s++ {
				ks.Shard(s).FlushAll()
			}
		},
		live:    net,
		closers: []func(){ks.Close, net.Close, rt.Close},
	}
	for s := 0; s < keyspaceShards; s++ {
		d.groups = append(d.groups, ks.Shard(s).LocalReplicas())
	}
	return d
}

// batchedOptions is DefaultOptions plus the batched hot path the TCP and
// keyspace workloads run.
func batchedOptions() core.Options {
	opt := core.DefaultOptions()
	opt.BatchSize = batchSize
	opt.BatchDelay = batchDelay
	return opt
}
