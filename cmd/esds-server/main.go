// Command esds-server runs one member of a multi-process ESDS cluster over
// TCP: either a single replica (the default) or an interactive front end
// (-client). Every process is given the same ordered list of replica
// addresses; replica i binds the i-th entry.
//
// A three-replica counter cluster on loopback:
//
//	esds-server -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	esds-server -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	esds-server -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	esds-server -client alice -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// The front end reads one operation per line from stdin (see parseOp for
// the per-data-type syntax), submits it with the previous operation's id as
// its prev set (read-your-writes), and prints the reported value. A
// trailing "!" makes the operation strict: the response is withheld until
// the operation's position in the eventual total order is fixed.
//
// With -shards N (N > 1) the member serves a sharded multi-object keyspace
// instead of one object: process i hosts replica i of every shard over its
// single listener, and each named object routes to a shard by consistent
// hash. Every member must be started with the same -shards value. The
// interactive front end then expects an object name as the first token of
// every line:
//
//	esds-server -id 0 -shards 4 -peers ... &
//	esds-server -id 1 -shards 4 -peers ... &
//	esds-server -id 2 -shards 4 -peers ... &
//	esds-server -client alice -shards 4 -peers ...
//	> cart:42 add 5
//	> cart:42 read !
//
// Causal chaining (prev) is per object; constraints cannot span shards.
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/placement"
	"esds/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	id        int
	peers     []string
	listen    string
	advertise string
	dtName    string
	shards    int
	place     int
	resize    int
	gossip    time.Duration
	client    string
	storeDir  string
	storeSync bool
	recover   bool
	verbose   bool
	opts      core.Options // core.BatchedOptions(), which every member runs
}

// keyspace reports whether the member serves a multi-object keyspace (-shards
// above 1, or a placed fleet) rather than one replicated object.
func (cfg config) keyspace() bool { return cfg.shards > 1 || cfg.place > 0 }

func parseFlags(args []string, stderr io.Writer) (config, error) {
	cfg := config{opts: core.BatchedOptions()}
	fs := flag.NewFlagSet("esds-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var peers string
	fs.IntVar(&cfg.id, "id", -1, "replica id (index into -peers); required unless -client is set")
	fs.StringVar(&peers, "peers", "", "comma-separated replica addresses, indexed by replica id (required)")
	fs.StringVar(&cfg.listen, "listen", "", "bind address (default: the -peers entry for -id; 127.0.0.1:0 for -client)")
	fs.StringVar(&cfg.advertise, "advertise", "",
		"address other processes dial to reach this one (default: the bound address; required when -listen binds a wildcard address like 0.0.0.0)")
	fs.StringVar(&cfg.dtName, "type", "counter", "data type: "+strings.Join(dtype.Names(), "|"))
	fs.IntVar(&cfg.shards, "shards", 1,
		"shard the service into a multi-object keyspace of this many independent clusters; every member must agree")
	fs.IntVar(&cfg.place, "place", 0,
		"replicate each shard on only this many of the -peers members (shard placement, DESIGN.md §13): the placement map assigns every shard's replica slots to members deterministically, and a member stores, serves, and gossips only the shards it hosts; 0 = every member hosts every shard; every member and client must agree")
	fs.IntVar(&cfg.resize, "resize", 0,
		"ADMIN MODE: grow the running keyspace the -peers members serve to this many shards, online (live resharding; DESIGN.md §7), then exit. Member 0 drives the migration; restart members with the new -shards afterwards so a later cold start matches")
	fs.DurationVar(&cfg.gossip, "gossip", core.GossipInterval, "gossip period")
	fs.StringVar(&cfg.client, "client", "", "run a front end for this client name instead of a replica")
	fs.StringVar(&cfg.storeDir, "store", "",
		"directory for the §9.3 stable store (locally generated labels and the operation descriptors they name, group-committed; DESIGN.md §10); required for correct crash recovery with -recover")
	fs.BoolVar(&cfg.storeSync, "store-sync", true,
		"fsync the stable store before acknowledging (group commit: one fsync per admission batch); -store-sync=false acknowledges once records reach the OS page cache — survives kill -9 but NOT power loss")
	fs.BoolVar(&cfg.recover, "recover", false,
		"start in §9.3 recovery: reload -store, then fetch every peer's state (range catch-up, in bounded chunks) before serving; use when restarting a crashed replica")
	fs.BoolVar(&cfg.verbose, "verbose", false, "log transport diagnostics to stderr")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if peers == "" {
		return cfg, fmt.Errorf("-peers is required")
	}
	cfg.peers = strings.Split(peers, ",")
	for i, p := range cfg.peers {
		cfg.peers[i] = strings.TrimSpace(p)
		if cfg.peers[i] == "" {
			return cfg, fmt.Errorf("-peers entry %d is empty", i)
		}
	}
	if _, ok := dtype.ByName(cfg.dtName); !ok {
		return cfg, fmt.Errorf("unknown data type %q (have %s)", cfg.dtName, strings.Join(dtype.Names(), ", "))
	}
	if cfg.shards < 1 {
		return cfg, fmt.Errorf("-shards %d must be at least 1", cfg.shards)
	}
	if cfg.place < 0 {
		return cfg, fmt.Errorf("-place %d is negative; use 0 for full replication", cfg.place)
	}
	if cfg.place > len(cfg.peers) {
		return cfg, fmt.Errorf("-place %d wants more replicas per shard than the fleet has members (%d)", cfg.place, len(cfg.peers))
	}
	if perShard := cmp.Or(cfg.place, len(cfg.peers)); perShard > core.MaxReplicas {
		return cfg, fmt.Errorf("%d replicas per shard, at most %d supported: use -place to spread a larger fleet", perShard, core.MaxReplicas)
	}
	if cfg.gossip <= 0 {
		return cfg, fmt.Errorf("-gossip %v must be positive: the §9.1 liveness assumption needs a gossip round in every bounded interval", cfg.gossip)
	}
	if cfg.resize < 0 {
		return cfg, fmt.Errorf("-resize %d is negative", cfg.resize)
	}
	if cfg.resize > 0 {
		if cfg.resize < 2 {
			return cfg, fmt.Errorf("-resize %d: a keyspace can only grow to 2 or more shards", cfg.resize)
		}
		if cfg.client != "" || cfg.id >= 0 || cfg.recover || cfg.storeDir != "" || cfg.place > 0 {
			return cfg, fmt.Errorf("-resize is an admin command: it takes only -peers (and optionally -verbose), not -client/-id/-recover/-store/-place")
		}
		return cfg, nil
	}
	if cfg.client != "" && (cfg.recover || cfg.storeDir != "") {
		return cfg, fmt.Errorf("-recover and -store apply to replicas, not -client front ends")
	}
	if cfg.recover && cfg.storeDir == "" {
		return cfg, fmt.Errorf("-recover requires -store: without persisted labels a recovered replica can re-issue a pre-crash label and split the total order (§9.3)")
	}
	if !cfg.storeSync && cfg.storeDir == "" {
		return cfg, fmt.Errorf("-store-sync=false needs -store: there is no stable store to skip syncing")
	}
	if cfg.client == "" {
		if cfg.id < 0 || cfg.id >= len(cfg.peers) {
			return cfg, fmt.Errorf("-id %d out of range for %d peers", cfg.id, len(cfg.peers))
		}
		if cfg.listen == "" {
			cfg.listen = cfg.peers[cfg.id]
		}
	} else if cfg.listen == "" {
		cfg.listen = "127.0.0.1:0"
	}
	return cfg, nil
}

// checkRecoverableStore guards -recover against a fresh or missing -store
// directory: recovery without the pre-crash labels is NOT a restart — a
// recovered replica could re-issue a label it used before the data loss
// and split the total order (§9.3). A genuinely new member should join
// with -store but WITHOUT -recover.
func checkRecoverableStore(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("-recover: cannot read -store directory %q: %w (a replica can only recover against the store it crashed with)", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".labels") {
			return nil
		}
	}
	return fmt.Errorf("-recover: -store directory %q holds no label files — this is a fresh store, and recovering against it could re-issue pre-crash labels (§9.3); start without -recover to join as a new member", dir)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "esds-server: %v\n", err)
		return 2
	}
	core.RegisterWire()
	registerCtlWire()
	if cfg.resize > 0 {
		return runResizeAdmin(cfg, stdout, stderr)
	}
	if cfg.recover {
		if err := checkRecoverableStore(cfg.storeDir); err != nil {
			fmt.Fprintf(stderr, "esds-server: %v\n", err)
			return 2
		}
	}
	dt, _ := dtype.ByName(cfg.dtName)

	// Every shard's replica i lives behind the same member address: shards
	// share each process's single listener, kept apart by shard-qualified
	// node names. Member control nodes (ctl:<i>) carry the resize admin
	// protocol. Under -place the replica entries come from the placement
	// map instead (ApplyPlacement below): slot k of a shard belongs to the
	// member the placement assigns it, not to member k.
	var place *placement.Placement
	if cfg.place > 0 {
		place = placement.New(cfg.shards, cfg.place, len(cfg.peers))
	}
	peerTable := make(map[transport.NodeID]string, len(cfg.peers)*cfg.shards)
	for i, addr := range cfg.peers {
		peerTable[ctlNode(i)] = addr
		if place != nil {
			continue
		}
		if cfg.client == "" && i == cfg.id {
			continue
		}
		for s := 0; s < cfg.shards; s++ {
			peerTable[core.ReplicaNodeIn(s, label.ReplicaID(i))] = addr
		}
	}
	logf := func(string, ...any) {}
	if cfg.verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}
	// The worker runtime (one worker per schedulable core) is created
	// before the transport and its Close deferred first, so the LIFO unwind
	// closes the transport (no more deliveries) before the workers drain
	// and stop.
	var rt *core.ShardRuntime
	if cfg.shards > 1 && cfg.client == "" {
		rt = core.NewShardRuntime(0)
		defer rt.Close()
	}
	net, err := transport.NewTCPNet(transport.TCPConfig{
		Listen:    cfg.listen,
		Advertise: cfg.advertise,
		Peers:     peerTable,
		Logf:      logf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "esds-server: %v\n", err)
		return 1
	}
	defer net.Close()
	if place != nil {
		core.ApplyPlacement(net, place, cfg.peers)
	}

	local := []int{}
	if cfg.client == "" {
		local = []int{cfg.id}
	}
	if cfg.keyspace() {
		return runSharded(cfg, dt, net, rt, local, place, stdin, stdout, stderr)
	}
	var stores []core.StableStore
	var fileStores []*core.FileStableStore
	if cfg.storeDir != "" {
		st, err := openStore(cfg.storeDir, 0, cfg.id, !cfg.storeSync)
		if err != nil {
			fmt.Fprintf(stderr, "esds-server: %v\n", err)
			return 1
		}
		defer st.Close()
		stores = make([]core.StableStore, len(cfg.peers))
		stores[cfg.id] = st
		fileStores = append(fileStores, st)
	}
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas:      len(cfg.peers),
		DataType:      dt,
		Network:       net,
		Options:       cfg.opts,
		Stores:        stores,
		LocalReplicas: local,
	})
	defer cluster.Close()
	if cfg.client == "" {
		// Unsharded members still answer the resize admin protocol — with a
		// clear refusal, so `esds-server -resize` fails fast instead of
		// timing out against a cluster that cannot reshard.
		(&memberCtl{id: cfg.id, net: net, ks: nil, stdout: stdout, stderr: stderr}).register()
	}
	net.Start()
	startTimers(cluster, cfg)
	if cfg.client != "" {
		return runClient(cfg, cluster, stdin, stdout, stderr)
	}
	if cfg.recover {
		startRecovery(cluster.LocalReplicas(), cfg.gossip, stdout)
	}
	// READY tells wrappers (and the integration test) that the replica is
	// registered and accepting connections on the printed address.
	fmt.Fprintf(stdout, "READY replica=%d addr=%s type=%s\n", cfg.id, net.Addr(), cfg.dtName)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigc:
		return 0
	case err := <-storeFailure(fileStores):
		fmt.Fprintf(stderr, "esds-server: stable store failed: %v; shutting down — the replica can no longer recover safely\n", err)
		return 1
	}
}

// timers is the live timer surface a Cluster and a Keyspace share.
type timers interface {
	StartLiveGossip(time.Duration)
	StartLiveRetransmit(time.Duration)
	StartLiveBatchFlush(time.Duration)
}

// startTimers starts the shipped timers a member runs: gossip on a replica
// member, and retransmission and the batch flusher on every member that
// creates front ends. A -client member submits through its front ends, and
// a sharded replica member creates them too: a -resize admin command makes
// member 0 the migration driver, whose strict KeyInstall submissions go
// through keyspace front ends. Without the flusher a buffered install would
// wait for the size trigger, and without retransmission (the paper's §6.2
// liveness mechanism) a lost install frame would stall the INSTALL phase
// forever.
func startTimers(c timers, cfg config) {
	if cfg.client == "" {
		c.StartLiveGossip(cfg.gossip)
	}
	if cfg.client != "" || cfg.keyspace() {
		c.StartLiveRetransmit(core.RetransmitInterval)
		c.StartLiveBatchFlush(cfg.opts.FlushPeriod())
	}
}

// openStore opens the file stable store for one (shard, replica) pair
// under dir, creating dir if needed.
func openStore(dir string, shard, id int, noSync bool) (*core.FileStableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating -store directory: %w", err)
	}
	return core.OpenFileStableStoreWith(
		filepath.Join(dir, fmt.Sprintf("s%d-replica-%d.labels", shard, id)),
		core.FileStoreOptions{NoSync: noSync})
}

// startRecovery begins §9.3 recovery on every local replica and keeps
// retrying it until it completes: the initial range requests race the
// peers' listeners (and, on a lossy network, can simply be dropped), and a
// request lost before any answer arrives would otherwise strand the replica
// in recovery forever. Retries go through RetryRecovery, which keeps the
// answers already collected, leaves a streaming round alone, and no-ops
// once recovery is done. When every local replica has recovered, a
// RECOVERED status line reports how the history came back (prefixes
// installed, operations seeded from them, descriptors retained) — wrappers
// and the multi-process tests read it to confirm the state transfer
// actually ran.
func startRecovery(replicas []*core.Replica, period time.Duration, stdout io.Writer) {
	for _, r := range replicas {
		r.Recover()
	}
	go func() {
		ticker := time.NewTicker(2 * period)
		defer ticker.Stop()
		for range ticker.C {
			waiting := false
			for _, r := range replicas {
				if r.Recovering() {
					waiting = true
					r.RetryRecovery()
				}
			}
			if !waiting {
				var m core.ReplicaMetrics
				for _, r := range replicas {
					m.Add(r.Metrics())
				}
				fmt.Fprintf(stdout, "RECOVERED replicas=%d snapshots=%d seeded=%d retained=%d\n",
					len(replicas), m.SnapshotsInstalled, m.SnapshotOpsSeeded, m.RetainedOps)
				return
			}
		}
	}()
}

// storeFailure watches the stable stores and yields the first write error:
// a replica that cannot persist its labels must fail-stop — continuing
// would advertise recoverability the §9.3 protocol can no longer deliver
// (a label lost from the store can be re-issued after a crash, splitting
// the total order).
func storeFailure(stores []*core.FileStableStore) <-chan error {
	if len(stores) == 0 {
		return nil
	}
	ch := make(chan error, 1)
	go func() {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for range ticker.C {
			for _, st := range stores {
				if err := st.Err(); err != nil {
					ch <- err
					return
				}
			}
		}
	}()
	return ch
}

// runSharded is the -shards N > 1 (or -place) path: the member hosts its
// replica id in every shard of a multi-object keyspace — or, when placed,
// only the replica slots the placement map assigns it (or a keyspace front
// end, with -client).
func runSharded(cfg config, dt dtype.DataType, net *transport.TCPNet, rt *core.ShardRuntime, local []int, place *placement.Placement, stdin io.Reader, stdout, stderr io.Writer) int {
	var storeFor func(shard, replica int) core.StableStore
	var storeErr error
	var stores []*core.FileStableStore
	// Registered before the keyspace exists (and before defer ks.Close), so
	// the LIFO order closes the store files only after every replica has
	// stopped writing labels.
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	if cfg.storeDir != "" && cfg.client == "" {
		storeFor = func(shard, replica int) core.StableStore {
			// Placed keyspaces only ask for hosted slots (which need not be
			// slot cfg.id); full-replication members persist only their own
			// replica id.
			if (place == nil && replica != cfg.id) || storeErr != nil {
				return nil
			}
			st, err := openStore(cfg.storeDir, shard, replica, !cfg.storeSync)
			if err != nil {
				storeErr = err
				return nil
			}
			stores = append(stores, st)
			return st
		}
	}
	replicas := len(cfg.peers)
	member := -1
	if place != nil {
		replicas = cfg.place
		if cfg.client == "" {
			member = cfg.id
		}
	}
	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards:        cfg.shards,
		Replicas:      replicas,
		DataType:      dt,
		Network:       net,
		Options:       cfg.opts,
		LocalReplicas: local,
		StoreFor:      storeFor,
		Runtime:       rt,
		Placement:     place,
		Member:        member,
		// The fleet size is pinned by -peers; a wrong-member refusal naming
		// a larger fleet means this process's address list is stale, and
		// only a restart can supply the missing addresses.
		OnStalePlacement: func(members int) {
			fmt.Fprintf(stderr, "esds-server: placement is stale: the fleet reports %d members but -peers names %d; restart with the full member list\n",
				members, len(cfg.peers))
		},
		// Online growth (a local Resize or a -resize admin command, or a
		// redirect-taught client following one): the new shards' remote
		// replicas live behind the same member addresses as every other
		// shard's. Placed keyspaces extend the placement map the same way
		// NewKeyspace's buildShard does (Extend is deterministic), then
		// re-point every slot. Runs under the keyspace lock — no ks calls.
		OnGrow: func(oldShards, newShards int) {
			if place != nil {
				place = place.Extend(newShards)
				core.ApplyPlacement(net, place, cfg.peers)
				return
			}
			for s := oldShards; s < newShards; s++ {
				for i, addr := range cfg.peers {
					if cfg.client == "" && i == cfg.id {
						continue
					}
					net.SetPeer(core.ReplicaNodeIn(s, label.ReplicaID(i)), addr)
				}
			}
		},
	})
	defer ks.Close()
	if storeErr != nil {
		fmt.Fprintf(stderr, "esds-server: %v\n", storeErr)
		return 1
	}
	if cfg.client == "" {
		(&memberCtl{id: cfg.id, net: net, ks: ks, stdout: stdout, stderr: stderr}).register()
	}
	net.Start()
	startTimers(ks, cfg)
	if cfg.client != "" {
		return runShardedClient(cfg, ks, stdin, stdout, stderr)
	}
	if cfg.recover {
		var all []*core.Replica
		for s := 0; s < ks.NumShards(); s++ {
			all = append(all, ks.Shard(s).LocalReplicas()...)
		}
		startRecovery(all, cfg.gossip, stdout)
	}
	ready := fmt.Sprintf("READY replica=%d shards=%d addr=%s type=%s", cfg.id, cfg.shards, net.Addr(), cfg.dtName)
	if place != nil {
		ready += fmt.Sprintf(" place=%d hosted=%d", cfg.place, len(place.ShardsOf(cfg.id)))
	}
	fmt.Fprintln(stdout, ready)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigc:
		return 0
	case err := <-storeFailure(stores):
		fmt.Fprintf(stderr, "esds-server: stable store failed: %v; shutting down — the replica can no longer recover safely\n", err)
		return 1
	}
}

// runShardedClient reads "OBJECT op args... [!]" lines and submits each
// operation through the keyspace router, chaining prev per object. The
// router is resize-aware: when a `-resize` admin command migrates an
// object to a new shard, operations follow it automatically (this process
// learns the new topology from Redirect replies; OnGrow extends the peer
// table), so a front end started with a stale -shards keeps working.
func runShardedClient(cfg config, ks *core.Keyspace, stdin io.Reader, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "READY client=%s shards=%d type=%s\n", cfg.client, cfg.shards, cfg.dtName)
	scanner := bufio.NewScanner(stdin)
	router := ks.Client(cfg.client)
	prev := make(map[string][]ops.ID)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		strict := strings.HasSuffix(line, "!")
		fields := strings.Fields(strings.TrimSuffix(line, "!"))
		if len(fields) < 2 {
			fmt.Fprintf(stderr, "esds-server: want \"OBJECT op args...\", got %q\n", line)
			continue
		}
		object := fields[0]
		op, err := parseOp(cfg.dtName, strings.Join(fields[1:], " "))
		if err != nil {
			fmt.Fprintf(stderr, "esds-server: %v\n", err)
			continue
		}
		x, v, err := submitWithDeadline(router, ks.WrapOp(object, op), prev[object], strict, 10*time.Second)
		if err != nil {
			fmt.Fprintf(stderr, "esds-server: %v\n", err)
			return 1
		}
		prev[object] = []ops.ID{x.ID}
		fmt.Fprintf(stdout, "%s@%d %v = %v\n", object, ks.ShardOf(object), x.ID, v)
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(stderr, "esds-server: reading stdin: %v\n", err)
		return 1
	}
	return 0
}

// runClient reads operations from stdin and submits them through a front
// end, chaining each operation's id into the next one's prev set.
func runClient(cfg config, cluster *core.Cluster, stdin io.Reader, stdout, stderr io.Writer) int {
	fe := cluster.FrontEnd(cfg.client)
	fmt.Fprintf(stdout, "READY client=%s type=%s\n", cfg.client, cfg.dtName)
	scanner := bufio.NewScanner(stdin)
	var prev []ops.ID
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		strict := strings.HasSuffix(line, "!")
		op, err := parseOp(cfg.dtName, strings.TrimSuffix(line, "!"))
		if err != nil {
			fmt.Fprintf(stderr, "esds-server: %v\n", err)
			continue
		}
		x, v, err := submitWithDeadline(fe, op, prev, strict, 10*time.Second)
		if err != nil {
			fmt.Fprintf(stderr, "esds-server: %v\n", err)
			return 1
		}
		prev = []ops.ID{x.ID}
		fmt.Fprintf(stdout, "%v = %v\n", x.ID, v)
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(stderr, "esds-server: reading stdin: %v\n", err)
		return 1
	}
	return 0
}

// submitWithDeadline submits one operation and waits for its response or
// the deadline. Retransmission against message loss is handled by the
// cluster-level ticker (StartLiveRetransmit), so the only terminal
// outcomes are a response, a close error, or the timeout.
func submitWithDeadline(sub core.Submitter, op dtype.Operator, prev []ops.ID, strict bool, timeout time.Duration) (ops.Operation, dtype.Value, error) {
	ch := make(chan core.Response, 1)
	x := sub.Submit(op, prev, strict, func(r core.Response) { ch <- r })
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case r := <-ch:
		return x, r.Value, r.Err
	case <-deadline.C:
		return x, nil, fmt.Errorf("operation %v timed out after %v", x.ID, timeout)
	}
}

// parseOp parses one operation line for the named data type:
//
//	counter:   add N | double | read
//	register:  write V | read
//	set:       add E | remove E | contains E | size
//	log:       append E | read | len
//	bank:      deposit ACCT N | withdraw ACCT N | balance ACCT
//	directory: bind NAME | unbind NAME | setattr NAME KEY VAL |
//	           getattr NAME KEY | lookup NAME | list
func parseOp(dtName, line string) (dtype.Operator, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return nil, fmt.Errorf("empty operation")
	}
	bad := func() (dtype.Operator, error) {
		return nil, fmt.Errorf("bad %s operation %q", dtName, line)
	}
	num := func(s string) (int64, bool) {
		n, err := strconv.ParseInt(s, 10, 64)
		return n, err == nil
	}
	switch dtName {
	case "counter":
		switch {
		case f[0] == "add" && len(f) == 2:
			if n, ok := num(f[1]); ok {
				return dtype.CtrAdd{N: n}, nil
			}
		case f[0] == "double" && len(f) == 1:
			return dtype.CtrDouble{}, nil
		case f[0] == "read" && len(f) == 1:
			return dtype.CtrRead{}, nil
		}
	case "register":
		switch {
		case f[0] == "write" && len(f) == 2:
			return dtype.RegWrite{Val: f[1]}, nil
		case f[0] == "read" && len(f) == 1:
			return dtype.RegRead{}, nil
		}
	case "set":
		switch {
		case f[0] == "add" && len(f) == 2:
			return dtype.SetAdd{Elem: f[1]}, nil
		case f[0] == "remove" && len(f) == 2:
			return dtype.SetRemove{Elem: f[1]}, nil
		case f[0] == "contains" && len(f) == 2:
			return dtype.SetContains{Elem: f[1]}, nil
		case f[0] == "size" && len(f) == 1:
			return dtype.SetSize{}, nil
		}
	case "log":
		switch {
		case f[0] == "append" && len(f) == 2:
			return dtype.LogAppend{Entry: f[1]}, nil
		case f[0] == "read" && len(f) == 1:
			return dtype.LogRead{}, nil
		case f[0] == "len" && len(f) == 1:
			return dtype.LogLen{}, nil
		}
	case "bank":
		switch {
		case f[0] == "deposit" && len(f) == 3:
			if n, ok := num(f[2]); ok {
				return dtype.BankDeposit{Account: f[1], Amount: n}, nil
			}
		case f[0] == "withdraw" && len(f) == 3:
			if n, ok := num(f[2]); ok {
				return dtype.BankWithdraw{Account: f[1], Amount: n}, nil
			}
		case f[0] == "balance" && len(f) == 2:
			return dtype.BankBalance{Account: f[1]}, nil
		}
	case "directory":
		switch {
		case f[0] == "bind" && len(f) == 2:
			return dtype.DirBind{Name: f[1]}, nil
		case f[0] == "unbind" && len(f) == 2:
			return dtype.DirUnbind{Name: f[1]}, nil
		case f[0] == "setattr" && len(f) == 4:
			return dtype.DirSetAttr{Name: f[1], Key: f[2], Val: f[3]}, nil
		case f[0] == "getattr" && len(f) == 3:
			return dtype.DirGetAttr{Name: f[1], Key: f[2]}, nil
		case f[0] == "lookup" && len(f) == 2:
			return dtype.DirLookup{Name: f[1]}, nil
		case f[0] == "list" && len(f) == 1:
			return dtype.DirList{}, nil
		}
	}
	return bad()
}
