package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/sim"
	"esds/internal/transport"
)

// flushOptions is batchOptions with a batch size the tests below never
// fill, so only the batching rule and flush ticks move requests.
func flushOptions() Options {
	opt := batchOptions()
	opt.BatchSize = 32
	return opt
}

// TestFirstSubmitGoesAtOnce: a submission that finds the batch closed is
// sent at once, so with BatchSize 32 and no flush tick a lone operation still
// reaches its replica within one link latency.
func TestFirstSubmitGoesAtOnce(t *testing.T) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{}) // 1ms per link
	cluster := NewCluster(ClusterConfig{Replicas: 1, DataType: dtype.Counter{}, Network: net, Options: flushOptions()})
	defer cluster.Close()
	answered := false
	cluster.FrontEnd("solo").Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { answered = true })
	s.RunFor(sim.Millisecond)
	if got := cluster.Replica(0).Metrics().RequestsReceived; got != 1 {
		t.Fatalf("after one link latency the replica received %d requests, want 1", got)
	}
	s.RunFor(sim.Millisecond)
	if !answered {
		t.Fatal("no response one round trip after the submission")
	}
}

// TestOpenTargetCoalesces walks the batch through the rule: the first of
// ten submissions in one instant goes at once and opens it, the other nine
// buffer and leave as one batch at the next flush tick, a tick with nothing
// buffered closes it, and the next submission goes at once again.
func TestOpenTargetCoalesces(t *testing.T) {
	s := sim.New(2)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := NewCluster(ClusterConfig{Replicas: 2, DataType: dtype.Counter{}, Network: net, Options: flushOptions()})
	defer cluster.Close()
	fe := cluster.FrontEnd("burst")
	fe.StickTo(ReplicaNode(0))
	answered := 0
	submit := func() { fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { answered++ }) }
	r0 := cluster.Replica(0)
	check := func(step string, requests, batches uint64) {
		t.Helper()
		s.RunFor(sim.Millisecond)
		if m := r0.Metrics(); m.RequestsReceived != requests || m.RequestBatchesReceived != batches {
			t.Fatalf("%s: replica received %d requests in %d batches, want %d in %d",
				step, m.RequestsReceived, m.RequestBatchesReceived, requests, batches)
		}
	}

	for i := 0; i < 10; i++ {
		submit()
	}
	check("ten submissions, no flush", 1, 0)
	fe.Flush()
	check("first flush", 10, 1)
	fe.Flush()
	check("second flush, nothing buffered", 10, 1)
	submit()
	check("submission after the target closed", 11, 1)
	s.RunFor(10 * sim.Millisecond)
	if answered != 11 {
		t.Fatalf("%d of 11 operations answered", answered)
	}
}

// TestFlushSetConcurrentUse runs submitters, the flusher and FlushAll
// callers against one flush set at once. With no retransmission ticker, a
// partial batch the set lost track of would strand its operations, so
// every operation must still be answered; the race detector checks the
// sharing.
func TestFlushSetConcurrentUse(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	opt := flushOptions()
	cluster := NewCluster(ClusterConfig{Replicas: 2, DataType: dtype.Counter{}, Network: net, Options: opt})
	defer cluster.Close()
	cluster.StartLiveBatchFlush(opt.FlushPeriod())

	stop := make(chan struct{})
	var flushers sync.WaitGroup
	flushers.Add(1)
	go func() {
		defer flushers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cluster.FlushAll()
			}
		}
	}()
	var submitters sync.WaitGroup
	for w := 0; w < 8; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			fe := cluster.FrontEnd(fmt.Sprintf("conc-%d", w))
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, _, err := fe.SubmitWaitCtx(ctx, dtype.CtrAdd{N: 1}, nil, false)
				cancel()
				if err != nil {
					t.Errorf("front end %d op %d: %v", w, i, err)
					return
				}
				if i%10 == 9 {
					time.Sleep(3 * opt.FlushPeriod()) // let the targets close and the front end leave the set
				}
			}
		}(w)
	}
	submitters.Wait()
	close(stop)
	flushers.Wait()
}

// TestIdleFlusherSleeps: once every front end has gone idle, the batch
// flusher stops ticking. 64 front ends each submit one operation, which
// goes out at once and opens a target. The next flush pass finds every
// target empty and closes it, so within two passes of the last submission
// the flush set is empty, and 50 idle flush periods pass without a pass (a
// flusher that ticks every front end every period would make 50 passes of
// 64 flushes).
func TestIdleFlusherSleeps(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	opt := flushOptions()
	cluster := NewCluster(ClusterConfig{Replicas: 2, DataType: dtype.Counter{}, Network: net, Options: opt})
	defer cluster.Close()
	cluster.StartLiveBatchFlush(opt.FlushPeriod())

	for i := 0; i < 64; i++ {
		fe := cluster.FrontEnd(fmt.Sprintf("idle-%02d", i))
		if _, _, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, false); err != nil {
			t.Fatalf("front end %d: %v", i, err)
		}
	}
	passes := cluster.flushPasses.Load()
	setLen := func() int {
		cluster.flushMu.Lock()
		defer cluster.flushMu.Unlock()
		return len(cluster.flushSet)
	}
	for deadline := time.Now().Add(10 * time.Second); setLen() > 0; time.Sleep(opt.FlushPeriod()) {
		if time.Now().After(deadline) {
			t.Fatal("the flush set never emptied")
		}
	}
	if took := cluster.flushPasses.Load() - passes; took > 2 {
		t.Fatalf("the flush set emptied after %d passes, want at most 2", took)
	}
	// The pass that emptied the set may still be finishing.
	time.Sleep(2 * opt.FlushPeriod())
	passes = cluster.flushPasses.Load()
	time.Sleep(50 * opt.FlushPeriod())
	if idle := cluster.flushPasses.Load() - passes; idle != 0 {
		t.Fatalf("the flusher made %d passes over 50 idle periods, want 0", idle)
	}
}
