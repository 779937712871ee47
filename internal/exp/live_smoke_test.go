package exp

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/loadlab"
	"esds/internal/ops"
	"esds/internal/ring"
	"esds/internal/transport"
)

// Smoke checks of the live-runtime experiments E11, E13, E15 and E16.
// Their drivers and time-shaped gates are retired (DESIGN.md §3); each
// test below keeps the structural claim its experiment's smoke run made,
// at smoke scale, by driving the shipped packages directly. Nothing here
// is timed.

// keyspaceWrites counts, per object, the adds a keyspace acknowledged and
// keeps their ids, so a strict read can be constrained after all of them.
type keyspaceWrites struct {
	mu   sync.Mutex
	adds map[string]int64
	ids  map[string][]ops.ID
}

func newKeyspaceWrites() *keyspaceWrites {
	return &keyspaceWrites{adds: make(map[string]int64), ids: make(map[string][]ops.ID)}
}

// add submits one increment of obj through client and records it.
func (w *keyspaceWrites) add(ks *core.Keyspace, client *core.KeyspaceClient, obj string) error {
	x, v, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false)
	if err == nil && v != "ok" {
		err = fmt.Errorf("add %s returned %v", obj, v)
	}
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.adds[obj]++
	w.ids[obj] = append(w.ids[obj], x.ID)
	w.mu.Unlock()
	return nil
}

// readBack requires each object's strict read, constrained after every
// acknowledged add of it, to equal exactly its count of adds: a lost or
// doubly applied operation breaks the count. It returns the sum read.
func (w *keyspaceWrites) readBack(ks *core.Keyspace) (int64, error) {
	reader := ks.Client("reader")
	var sum int64
	for obj, n := range w.adds {
		_, v, err := reader.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), w.ids[obj], true)
		if err != nil {
			return sum, fmt.Errorf("strict read %s: %w", obj, err)
		}
		if v != n {
			return sum, fmt.Errorf("object %s read %v, want %d", obj, v, n)
		}
		sum += n
	}
	return sum, nil
}

func objectNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%03d", i)
	}
	return names
}

// TestE11ResizeSmoke grows a live 2-shard keyspace to 3 while two writers
// keep adding: nothing acknowledged is lost or doubled across the
// migration, and, since every object has state before the resize, the
// migration moves exactly the keys the ring diff names.
func TestE11ResizeSmoke(t *testing.T) {
	net := transport.NewLiveNet()
	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards:   2,
		Replicas: 2,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  core.DefaultOptions(),
	})
	ks.StartLiveGossip(time.Millisecond)
	ks.StartLiveRetransmit(250 * time.Millisecond)
	t.Cleanup(func() {
		ks.Close()
		net.Close()
	})

	objects := objectNames(24)
	writes := newKeyspaceWrites()
	warm := ks.Client("warm")
	for _, obj := range objects {
		if err := writes.add(ks, warm, obj); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 2
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ks.Client(fmt.Sprintf("w%d", w))
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				if err := writes.add(ks, client, objects[i%len(objects)]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("worker %d: %w", w, err)
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	rep, err := ks.Resize(3)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("resize under load: %v", err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	oldRing, newRing := ring.New(2), ring.New(3)
	named := 0
	for _, obj := range objects {
		if ring.Moves(oldRing, newRing, obj) {
			named++
		}
	}
	if rep.KeysMoved == 0 || rep.KeysMoved != named {
		t.Fatalf("resize moved %d keys, the ring diff names %d of %d objects", rep.KeysMoved, named, len(objects))
	}
	if _, err := writes.readBack(ks); err != nil {
		t.Fatal(err)
	}
	if faults := ks.Faults(); len(faults) > 0 {
		t.Fatalf("replica faults: %v", faults)
	}
}

// TestE13CoreScalingSmoke runs a sharded keyspace on the worker pool at 1
// and 2 GOMAXPROCS, with as many workers: at each point every client's
// operations complete, and a strict read of each object equals exactly
// the adds acknowledged for it.
func TestE13CoreScalingSmoke(t *testing.T) {
	const (
		clients      = 2
		opsPerClient = 50
	)
	objects := objectNames(16)
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("cores-%d", cores), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
			opt := core.DefaultOptions()
			opt.Commute = true
			net := transport.NewLiveNet()
			rt := core.NewShardRuntime(cores)
			ks := core.NewKeyspace(core.KeyspaceConfig{
				Shards:   2,
				Replicas: 2,
				DataType: dtype.Counter{},
				Network:  net,
				Options:  opt,
				Runtime:  rt,
			})
			defer func() {
				ks.Close()
				net.Close()
				rt.Close()
			}()
			ks.StartLiveGossip(time.Millisecond)
			ks.StartLiveRetransmit(250 * time.Millisecond)

			// Each client owns a disjoint set of objects.
			writes := newKeyspaceWrites()
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				go func(c int) {
					client := ks.Client(fmt.Sprintf("w%d", c))
					for i := 0; i < opsPerClient; i++ {
						if err := writes.add(ks, client, objects[(c+i*clients)%len(objects)]); err != nil {
							errs <- fmt.Errorf("client %d op %d: %w", c, i, err)
							return
						}
					}
					errs <- nil
				}(c)
			}
			for c := 0; c < clients; c++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			sum, err := writes.readBack(ks)
			if err != nil {
				t.Fatal(err)
			}
			if sum != clients*opsPerClient {
				t.Fatalf("read back %d adds, want %d", sum, clients*opsPerClient)
			}
			if faults := ks.Faults(); len(faults) > 0 {
				t.Fatalf("replica faults: %v", faults)
			}
		})
	}
}

// TestE15LoadLabSmoke drives the open-loop generator over the clean and
// lossy profiles for a short window: every offered operation is answered
// without error, read back exactly and present in its shard's converged
// order, and the latency histogram records a plausible distribution.
func TestE15LoadLabSmoke(t *testing.T) {
	const shards, replicas = 2, 3
	for _, name := range []string{"clean", "lossy"} {
		t.Run(name, func(t *testing.T) {
			prof, ok := loadlab.ProfileByName(name, shards, replicas)
			if !ok {
				t.Fatalf("unknown profile %q", name)
			}
			inner := transport.NewLiveNet()
			fnet := transport.NewFaultNet(inner, prof.NetConfig(7))
			ks := core.NewKeyspace(core.KeyspaceConfig{
				Shards:   shards,
				Replicas: replicas,
				DataType: dtype.Counter{},
				Network:  fnet,
				Options:  core.Options{Memoize: true, Prune: true, BatchSize: 8},
			})
			defer func() {
				ks.Close()
				fnet.Close()
				inner.Close()
			}()
			ks.StartLiveGossip(2 * time.Millisecond)
			ks.StartLiveRetransmit(25 * time.Millisecond)
			ks.StartLiveBatchFlush(time.Millisecond)
			fnet.Start()

			rep := loadlab.Run(ks, loadlab.Config{
				Seed:              7,
				Sessions:          8,
				Rate:              200,
				Duration:          250 * time.Millisecond,
				ObjectsPerSession: 2,
				BeforeDrain:       fnet.Heal,
				DrainTimeout:      20 * time.Second,
			})
			if rep.Offered == 0 || rep.Unanswered > 0 || rep.Errors > 0 {
				t.Fatalf("%d offered, %d unanswered, %d answered with errors", rep.Offered, rep.Unanswered, rep.Errors)
			}
			if err := loadlab.WaitConverged(ks, 20*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := loadlab.ReadBack(ks, rep, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := loadlab.WaitConverged(ks, 20*time.Second); err != nil {
				t.Fatalf("after read-back: %v", err)
			}
			if err := loadlab.AnsweredInOrder(ks, rep); err != nil {
				t.Fatal(err)
			}
			if faults := ks.Faults(); len(faults) > 0 {
				t.Fatalf("replica faults: %v", faults)
			}
			if n := rep.Lat.Count(); n != uint64(rep.Answered) {
				t.Fatalf("latency histogram holds %d samples, %d operations answered", n, rep.Answered)
			}
			if p50, p99 := rep.Lat.Quantile(0.50), rep.Lat.Quantile(0.99); p50 <= 0 || p99 < p50 {
				t.Fatalf("implausible latency distribution: p50 %dns, p99 %dns", p50, p99)
			}
		})
	}
}

// legacyWire hides a transport's FeatureNegotiator: only the Network
// methods are promoted, so a replica on it neither announces nor sees
// FeatureCompactGossip and sends plain gossip, as a pre-codec member does.
type legacyWire struct{ transport.Network }

// stepLoadOnTCP runs one open-loop window against 2 replicas, each on its
// own loopback TCPNet, with the clients on a third, front-end-only member,
// at batch size 32. It requires every operation answered and read back
// exactly, and compact gossip sent exactly when the members negotiate it
// (legacy false). It returns the frame bytes every transport sent per
// answered operation.
func stepLoadOnTCP(t *testing.T, legacy bool) float64 {
	t.Helper()
	core.RegisterWire()
	const replicas = 2
	opt := core.DefaultOptions()
	opt.BatchSize = 32
	opt.BatchDelay = time.Millisecond

	var nets []*transport.TCPNet
	listen := func() *transport.TCPNet {
		net, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { net.Close() })
		nets = append(nets, net)
		return net
	}
	addrs := make([]string, replicas)
	for i := range addrs {
		addrs[i] = listen().Addr().String()
	}
	peer := func(net *transport.TCPNet, self int) {
		for j, addr := range addrs {
			if j != self {
				net.SetPeer(core.ReplicaNode(label.ReplicaID(j)), addr)
			}
		}
	}
	members := make([]*core.Keyspace, replicas)
	for i := range members {
		peer(nets[i], i)
		var net transport.Network = nets[i]
		if legacy {
			net = legacyWire{net}
		}
		members[i] = core.NewKeyspace(core.KeyspaceConfig{
			Shards: 1, Replicas: replicas, DataType: dtype.Counter{}, Network: net,
			Options: opt, LocalReplicas: []int{i},
		})
		t.Cleanup(members[i].Close)
		nets[i].Start()
		members[i].StartLiveGossip(2 * time.Millisecond)
	}
	feNet := listen()
	peer(feNet, -1)
	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards: 1, Replicas: replicas, DataType: dtype.Counter{}, Network: feNet,
		Options: opt, LocalReplicas: []int{},
	})
	t.Cleanup(ks.Close)
	feNet.Start()
	ks.StartLiveRetransmit(25 * time.Millisecond)
	ks.StartLiveBatchFlush(time.Millisecond)

	sent := func() (bytes uint64) {
		for _, n := range nets {
			bytes += n.Stats().Bytes
		}
		return bytes
	}
	before := sent()
	rep := loadlab.Run(ks, loadlab.Config{
		Seed:              7,
		Sessions:          8,
		Rate:              500,
		Duration:          500 * time.Millisecond,
		ObjectsPerSession: 2,
		DrainTimeout:      20 * time.Second,
	})
	wire := sent() - before
	if rep.Offered == 0 || rep.Unanswered > 0 || rep.Errors > 0 {
		t.Fatalf("%d offered, %d unanswered, %d answered with errors", rep.Offered, rep.Unanswered, rep.Errors)
	}
	if wire == 0 {
		t.Fatal("no frame bytes sent")
	}
	// The members are on other transports, so convergence is proven
	// through the protocol: strict reads after every acknowledged add.
	if err := loadlab.ReadBack(ks, rep, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	var compactFrames uint64
	for i, m := range members {
		if faults := m.Faults(); len(faults) > 0 {
			t.Fatalf("member %d replica faults: %v", i, faults)
		}
		rm := m.Shard(0).Replica(i).Metrics()
		compactFrames += rm.CompactGossipSent
		if rm.CompactGossipRejects > 0 {
			t.Fatalf("member %d rejected %d compact gossip frames", i, rm.CompactGossipRejects)
		}
	}
	if !legacy && compactFrames == 0 {
		t.Fatal("compact gossip negotiated but no compact frame was sent")
	}
	if legacy && compactFrames != 0 {
		t.Fatalf("compact gossip never negotiated but %d compact frames were sent", compactFrames)
	}
	return float64(wire) / float64(rep.Answered)
}

// TestE16StepLoadSmoke runs the same open-loop window over real loopback
// sockets twice, once with compact gossip negotiated and once on members
// that never negotiate it: both answer and read back everything, the
// compact path engages exactly when negotiated, and the compact run sends
// no more bytes per operation than the plain one.
func TestE16StepLoadSmoke(t *testing.T) {
	compact := stepLoadOnTCP(t, false)
	plain := stepLoadOnTCP(t, true)
	t.Logf("bytes/op: %.0f compact, %.0f plain", compact, plain)
	if compact > plain {
		t.Fatalf("compact gossip bytes/op %.0f exceeds plain %.0f", compact, plain)
	}
}
