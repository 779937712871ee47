package core

import (
	"errors"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// frontEndModes are the two front-end shapes the exactly-once tests below
// run under: unbatched (round-robin) and batched (home routing, with a
// batch size the tests never fill).
var frontEndModes = []struct {
	name string
	opt  Options
}{
	{"unbatched", DefaultOptions()},
	{"batched", flushOptions()},
}

// simFrontEnd builds a 3-replica counter cluster on a SimNet without
// gossip or tickers and returns client "c"'s front end; only the test's
// own Flush and Retransmit calls move requests after submission.
func simFrontEnd(t *testing.T, opt Options, cfg transport.SimNetConfig) (*sim.Sim, *transport.SimNet, *Cluster, *FrontEnd) {
	t.Helper()
	s := sim.New(1)
	net := transport.NewSimNet(s, cfg)
	cluster := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: opt})
	t.Cleanup(cluster.Close)
	return s, net, cluster, cluster.FrontEnd("c")
}

// TestFrontEndCancel: a cancelled operation leaves wait_c at once — Pending
// drops and a second Cancel finds nothing — and its callback never fires.
// Unbatched, its request has already reached a replica, whose answer then
// arrives and is ignored. Batched, it was still in the buffer, which it
// leaves: the flush sends the rest, and no replica ever receives it.
func TestFrontEndCancel(t *testing.T) {
	for _, m := range frontEndModes {
		t.Run(m.name, func(t *testing.T) {
			s, _, cluster, fe := simFrontEnd(t, m.opt, transport.SimNetConfig{})
			fired := make([]int, 3)
			var xs []ops.Operation
			for i := range fired {
				xs = append(xs, fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { fired[i]++ }))
			}
			if !fe.Cancel(xs[1].ID) {
				t.Fatal("Cancel of a pending operation reported it not pending")
			}
			if got := fe.Pending(); got != 2 {
				t.Fatalf("%d operations pending after the cancel, want 2", got)
			}
			if fe.Cancel(xs[1].ID) {
				t.Fatal("a second Cancel found the operation still pending")
			}
			fe.Flush()
			s.RunFor(10 * sim.Millisecond)
			want := uint64(3) // the cancelled one too
			if m.opt.BatchSize > 1 {
				want = 2
			}
			if got := cluster.TotalMetrics().RequestsReceived; got != want {
				t.Fatalf("replicas received %d requests, want %d", got, want)
			}
			if fired[0] != 1 || fired[1] != 0 || fired[2] != 1 {
				t.Fatalf("callbacks fired %v times, want [1 0 1]", fired)
			}
			if _, responses := fe.Stats(); responses != 2 {
				t.Fatalf("%d responses delivered, want 2", responses)
			}
			if got := fe.Pending(); got != 0 {
				t.Fatalf("%d operations pending, want 0", got)
			}
		})
	}
}

// TestFrontEndSubmitOpDuplicateID: SubmitOp of an id that is already
// pending is ignored — nothing is sent for it — and the first
// registration's callback is the one that fires.
func TestFrontEndSubmitOpDuplicateID(t *testing.T) {
	for _, m := range frontEndModes {
		t.Run(m.name, func(t *testing.T) {
			s, _, cluster, fe := simFrontEnd(t, m.opt, transport.SimNetConfig{})
			x := ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "c", Seq: 7}, nil, false)
			first, second := 0, 0
			fe.SubmitOp(x, func(Response) { first++ })
			fe.SubmitOp(x, func(Response) { second++ })
			if got := fe.Pending(); got != 1 {
				t.Fatalf("%d operations pending, want 1", got)
			}
			fe.Flush()
			s.RunFor(10 * sim.Millisecond)
			if got := cluster.TotalMetrics().RequestsReceived; got != 1 {
				t.Fatalf("replicas received %d requests, want 1", got)
			}
			if first != 1 || second != 0 {
				t.Fatalf("first callback fired %d times, second %d; want 1 and 0", first, second)
			}
		})
	}
}

// TestFrontEndDuplicateResponsesFireOnce: on a network that delivers every
// frame twice, each operation's callback still fires exactly once.
func TestFrontEndDuplicateResponsesFireOnce(t *testing.T) {
	for _, m := range frontEndModes {
		t.Run(m.name, func(t *testing.T) {
			s, net, _, fe := simFrontEnd(t, m.opt, transport.SimNetConfig{DupProb: 1})
			fired := make([]int, 5)
			for i := range fired {
				fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { fired[i]++ })
			}
			fe.Flush()
			s.RunFor(10 * sim.Millisecond)
			if net.Stats().Duplicated == 0 {
				t.Fatal("the network duplicated no frame")
			}
			for i, n := range fired {
				if n != 1 {
					t.Fatalf("operation %d: callback fired %d times, want 1", i, n)
				}
			}
			if _, responses := fe.Stats(); responses != uint64(len(fired)) {
				t.Fatalf("%d responses delivered, want %d", responses, len(fired))
			}
		})
	}
}

// TestFrontEndCloseFailsEachPendingOnce: with every replica down, Close
// fires each pending callback exactly once with ErrClosed — batched, the
// buffered operations too — and nothing a later Close, flush, retransmit
// or delivery does fires one again.
func TestFrontEndCloseFailsEachPendingOnce(t *testing.T) {
	for _, m := range frontEndModes {
		t.Run(m.name, func(t *testing.T) {
			s, net, _, fe := simFrontEnd(t, m.opt, transport.SimNetConfig{})
			for i := 0; i < 3; i++ {
				net.SetNodeDown(ReplicaNode(label.ReplicaID(i)), true)
			}
			fired := make([]int, 5)
			for i := range fired {
				fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(r Response) {
					if !errors.Is(r.Err, ErrClosed) {
						t.Errorf("operation %d: callback got %+v, want ErrClosed", i, r)
					}
					fired[i]++
				})
			}
			fe.Close(nil)
			fe.Close(nil)
			fe.Flush()
			if got := fe.Retransmit(); got != 0 {
				t.Fatalf("closed front end re-sent %d requests", got)
			}
			s.RunFor(10 * sim.Millisecond)
			for i, n := range fired {
				if n != 1 {
					t.Fatalf("operation %d: callback fired %d times, want 1", i, n)
				}
			}
			if got := fe.Pending(); got != 0 {
				t.Fatalf("%d operations pending after Close, want 0", got)
			}
		})
	}
}

// TestHomeMoveEmptiesBatch: a batched front end whose home moves while its
// batch holds buffered operations empties and closes the batch — those
// operations are pending and leave in the tick's re-send — so no later
// flush sends them to the replica just left, and the next submission goes
// at once to the new home.
func TestHomeMoveEmptiesBatch(t *testing.T) {
	const n = 3
	s, net, cluster, fe := simFrontEnd(t, flushOptions(), transport.SimNetConfig{})
	home := fe.NextTarget()
	for i := 0; i < n; i++ {
		net.SetNodeDown(ReplicaNode(label.ReplicaID(i)), true)
	}
	answered := 0
	for i := 0; i < 5; i++ { // the first goes at once, four are buffered
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { answered++ })
	}
	fe.Retransmit() // the home has now owed an answer across a tick
	fe.Retransmit() // so this tick moves it
	newHome := fe.NextTarget()
	if want := after(t, home, 1, n); newHome != want {
		t.Fatalf("home %s after two silent ticks, want %s", newHome, want)
	}
	s.RunFor(10 * sim.Millisecond) // everything sent so far is lost
	for i := 0; i < n; i++ {
		net.SetNodeDown(ReplicaNode(label.ReplicaID(i)), false)
	}
	fe.Flush()
	s.RunFor(sim.Millisecond)
	if got := cluster.Replica(replicaIndex(t, home, n)).Metrics().RequestsReceived; got != 0 {
		t.Fatalf("a flush after the move sent %d requests to the old home", got)
	}
	fe.Submit(dtype.CtrRead{}, nil, false, func(Response) { answered++ })
	s.RunFor(sim.Millisecond) // one link latency, no flush tick
	if got := cluster.Replica(replicaIndex(t, newHome, n)).Metrics().RequestsReceived; got != 1 {
		t.Fatalf("new home received %d requests one link latency after the submission, want 1", got)
	}
	fe.Retransmit()
	s.RunFor(10 * sim.Millisecond)
	if answered != 6 || fe.Pending() != 0 {
		t.Fatalf("%d of 6 operations answered, %d pending", answered, fe.Pending())
	}
}
