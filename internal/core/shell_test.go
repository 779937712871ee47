package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/ring"
	"esds/internal/sim"
	"esds/internal/transport"
)

// gateStore is a StableStore whose Commit, while armed, blocks until the
// test answers it on commits: with nil, or with the error Commit then
// returns.
type gateStore struct {
	MemStableStore
	mu      sync.Mutex
	armed   bool
	commits chan chan error
}

func (s *gateStore) Commit() error {
	s.mu.Lock()
	armed := s.armed
	s.mu.Unlock()
	if !armed {
		return nil
	}
	answer := make(chan error)
	s.commits <- answer
	return <-answer
}

// recordNet records every message sent, then hands it on.
type recordNet struct {
	transport.Network
	mu   sync.Mutex
	sent []transport.Message
}

func (n *recordNet) Send(from, to transport.NodeID, payload any) {
	n.mu.Lock()
	n.sent = append(n.sent, transport.Message{From: from, To: to, Payload: payload})
	n.mu.Unlock()
	n.Network.Send(from, to, payload)
}

// count is the number of messages recorded since mark whose payload is
// kind.
func (n *recordNet) count(mark int, kind func(any) bool) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, m := range n.sent[mark:] {
		if kind(m.Payload) {
			c++
		}
	}
	return c
}

func (n *recordNet) mark() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sent)
}

// durableEnv is a 3-replica keyed counter cluster on SimNet whose
// replicas journal into gateStores, with a history that is stable and
// memoized everywhere, and keys the 1 → 2 shard growth moves away and
// keeps.
type durableEnv struct {
	s               *sim.Sim
	net             *recordNet
	cluster         *Cluster
	stores          []*gateStore
	commits         chan chan error // every store's
	moving, staying string
}

func newDurableEnv(t *testing.T) *durableEnv {
	t.Helper()
	s := sim.New(1)
	net := &recordNet{Network: transport.NewSimNet(s, transport.SimNetConfig{})}
	e := &durableEnv{s: s, net: net, commits: make(chan chan error)}
	var stores []StableStore
	for i := 0; i < 3; i++ {
		st := &gateStore{MemStableStore: *NewMemStableStore(), commits: e.commits}
		e.stores = append(e.stores, st)
		stores = append(stores, st)
	}
	e.cluster = NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.NewKeyed(dtype.Counter{}),
		Network:  net,
		Options:  batchOptions(),
		Stores:   stores,
	})
	t.Cleanup(e.cluster.Close)
	e.cluster.StartSimGossip(s, 2*sim.Millisecond)
	for _, sink := range []transport.NodeID{"ctl:test", FrontEndNode("probe")} {
		net.Register(sink, func(transport.Message) {})
	}
	oldRing, newRing := ring.New(1), ring.New(2)
	for i := 0; e.moving == "" || e.staying == ""; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if ring.Moves(oldRing, newRing, key) {
			e.moving = key
		} else {
			e.staying = key
		}
	}
	fe := e.cluster.FrontEnd("warm")
	for i := 0; i < 4; i++ {
		fe.Submit(dtype.KeyedOp{Key: e.staying, Op: dtype.CtrAdd{N: 1}}, nil, false, nil)
	}
	e.cluster.FlushAll()
	e.s.RunFor(100 * sim.Millisecond)
	if m := e.cluster.Replica(1).Metrics(); m.MemoizedOps < 2 {
		t.Fatalf("set-up: replica 1 memoized %d operations, want at least 2", m.MemoizedOps)
	}
	for _, st := range e.stores {
		st.mu.Lock()
		st.armed = true
		st.mu.Unlock()
	}
	return e
}

// run calls step on its own goroutine and answers every Commit the step
// makes with err; held runs while each commit is blocked.
func (e *durableEnv) run(step func(), err error, held func()) {
	done := make(chan struct{})
	go func() {
		step()
		close(done)
	}()
	for {
		select {
		case answer := <-e.commits:
			held()
			answer <- err
		case <-done:
			return
		}
	}
}

func isAnswer(p any) bool {
	switch m := p.(type) {
	case ResponseMsg:
		return m.Redirect == nil
	case BatchResponseMsg:
		return true
	}
	return false
}

func isRefusal(p any) bool {
	m, ok := p.(ResponseMsg)
	return ok && m.Redirect != nil
}

func isGossip(p any) bool {
	switch p.(type) {
	case GossipMsg, CompactGossipMsg:
		return true
	}
	return false
}

func isRangeAnswer(p any) bool  { _, ok := p.(RangeResponseMsg); return ok }
func isRangeRequest(p any) bool { _, ok := p.(RangeRequestMsg); return ok }
func isFreezeAck(p any) bool    { _, ok := p.(FreezeAckMsg); return ok }
func isCompleteAck(p any) bool  { _, ok := p.(ResizeCompleteAckMsg); return ok }

// TestAckAfterDurableAtEveryExit holds every group commit a replica makes
// and checks each way a message leaves it (§9.3, DESIGN.md §10): a
// response, a round's and a prompt send's gossip frames, a range answer's
// chunks, a freeze ack and a resize-complete ack are not on the network
// while the commit is held, are sent once it succeeds, and are never sent
// after it fails. A refusal, which carries no label, leaves while its
// step's commit is still held, and so does a range request opened while
// another step's commit is.
func TestAckAfterDurableAtEveryExit(t *testing.T) {
	op := func(seq uint64, key string, strict bool) ops.Operation {
		return ops.New(dtype.KeyedOp{Key: key, Op: dtype.CtrAdd{N: 1}}, ops.ID{Client: "probe", Seq: seq}, nil, strict)
	}
	freeze := FreezeKeysMsg{Epoch: 1, OldShards: 1, NewShards: 2, Nonce: 1, ReplyTo: "ctl:test"}
	type exit struct {
		name string
		// setup runs with commits answered at once; step is the exit.
		setup func(e *durableEnv)
		step  func(e *durableEnv)
		kind  func(any) bool
		want  int // messages of kind step sends when its commit succeeds
		// also are messages that must be on the network while step's commit
		// is held, sent by step itself or by open, which held calls.
		also func(any) bool
		open func(e *durableEnv)
	}
	exits := []exit{{
		name:  "response",
		setup: func(e *durableEnv) { e.cluster.Replica(0).handleMessage(transport.Message{Payload: freeze}) },
		step: func(e *durableEnv) {
			e.cluster.Replica(0).handleMessage(transport.Message{Payload: BatchRequestMsg{Ops: []ops.Operation{
				op(0, e.staying, false), op(1, e.moving, false), op(2, e.staying, false)}}})
		},
		kind: isAnswer, want: 1, also: isRefusal,
	}, {
		name: "round gossip",
		setup: func(e *durableEnv) {
			e.cluster.Replica(0).handleMessage(transport.Message{Payload: RequestMsg{Op: op(0, e.staying, false)}})
		},
		step: func(e *durableEnv) { e.cluster.Replica(0).SendGossip() },
		kind: isGossip, want: 2, also: isRangeRequest,
		open: func(e *durableEnv) {
			r := e.cluster.Replica(0)
			r.CatchUpRange()
			r.RetryRecovery()
		},
	}, {
		name: "prompt gossip",
		step: func(e *durableEnv) {
			e.cluster.Replica(0).handleMessage(transport.Message{Payload: RequestMsg{Op: op(0, e.staying, true)}})
		},
		kind: isGossip, want: 2,
	}, {
		name: "range answer",
		step: func(e *durableEnv) {
			r := e.cluster.Replica(1)
			r.rangeChunk = 1
			r.handleMessage(transport.Message{Payload: RangeRequestMsg{From: 0, Have: 0, Nonce: 7}})
		},
		kind: isRangeAnswer, want: 3,
	}, {
		name: "freeze ack",
		step: func(e *durableEnv) { e.cluster.Replica(0).handleMessage(transport.Message{Payload: freeze}) },
		kind: isFreezeAck, want: 1,
	}, {
		name:  "resize-complete ack",
		setup: func(e *durableEnv) { e.cluster.Replica(0).handleMessage(transport.Message{Payload: freeze}) },
		step: func(e *durableEnv) {
			e.cluster.Replica(0).handleMessage(transport.Message{Payload: ResizeCompleteMsg{Epoch: 1, OldShards: 1, Shards: 2, ReplyTo: "ctl:test"}})
		},
		kind: isCompleteAck, want: 1,
	}}
	for _, x := range exits {
		for _, fail := range []bool{false, true} {
			name := x.name
			var err error
			if fail {
				name, err = name+"/failed commit", errors.New("disk gone")
			}
			t.Run(name, func(t *testing.T) {
				e := newDurableEnv(t)
				if x.setup != nil {
					e.run(func() { x.setup(e) }, nil, func() {})
				}
				mark, held := e.net.mark(), 0
				e.run(func() { x.step(e) }, err, func() {
					held++
					if got := e.net.count(mark, x.kind); got > 0 {
						t.Errorf("%d messages left before the commit returned", got)
					}
					if x.open != nil {
						x.open(e)
					}
					if x.also != nil && e.net.count(mark, x.also) == 0 {
						t.Errorf("no message that carries no label left while the commit was held")
					}
				})
				if held == 0 {
					t.Fatal("the exit committed nothing")
				}
				want := x.want
				if fail {
					want = 0
				}
				if got := e.net.count(mark, x.kind); got < want || fail && got > 0 {
					t.Fatalf("%d messages sent, want %d", got, want)
				}
			})
		}
	}
}

// sinkNet drops every message.
type sinkNet struct{}

func (sinkNet) Register(transport.NodeID, transport.Handler) {}
func (sinkNet) Send(_, _ transport.NodeID, _ any)            {}

// TestBatchedResponsesAllocs pins what answering 32 pending operations of
// one front end costs in allocations with batching on: the outbox's
// responses and the one batch they leave in, with no grouping map or
// order slice. The operations are done already and their values at hand,
// so the pass computes none.
func TestBatchedResponsesAllocs(t *testing.T) {
	opt := DefaultOptions()
	opt.BatchSize = 32
	r := NewReplica(ReplicaConfig{ID: 0, Peers: []transport.NodeID{ReplicaNode(0)},
		DataType: dtype.Counter{}, Network: sinkNet{}, Options: opt})
	batch := BatchRequestMsg{}
	for i := range 32 {
		batch.Ops = append(batch.Ops, ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "c", Seq: uint64(i)}, nil, false))
	}
	r.deliverRun([]transport.Message{{Payload: batch}})
	var recs []*idRec
	var vals []dtype.Value
	for _, x := range batch.Ops {
		e := r.ids.get(x.ID)
		recs, vals = append(recs, e), append(vals, r.retainedValue(e, recMemo))
	}
	var sent uint64
	allocs := testing.AllocsPerRun(100, func() {
		r.step(skipCrashed, func() (o outbox) {
			// Pending again, each with the value its apply left, as on its
			// first answer.
			for i, e := range recs {
				e.flags |= recPending
				r.pendingQueue = append(r.pendingQueue, e)
				r.keepFresh(e, recMemo, vals[i])
			}
			r.respondPending(&o)
			return o
		})
		sent++
	})
	if m := r.Metrics(); m.ResponseBatchesSent != sent+1 {
		t.Fatalf("%d response batches sent in %d passes, want one a pass", m.ResponseBatchesSent, sent+1)
	}
	t.Logf("%.1f allocations per 32-response batched pass", allocs)
	if allocs > 3 {
		t.Fatalf("%.1f allocations per 32-response batched pass, want at most 3: the outbox's responses, the batch and its boxing", allocs)
	}
}
