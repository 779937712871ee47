package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/transport"
)

// TestRetransmitBatchingUnderLoss is the regression pin for the
// retransmission ticker composed with the batched submission path: under
// 30% message loss on EVERY link, pipelined batched increments must
// still converge to exactly their acknowledged sum — a lost
// BatchRequestMsg must be retransmitted (liveness) and a duplicated one
// must not double-apply (the replica's per-client dedup owns idempotence,
// not the network). The FaultNet heals before the drain, so any op still
// unanswered afterwards is a real retransmission bug, not bad luck.
func TestRetransmitBatchingUnderLoss(t *testing.T) {
	inner := transport.NewLiveNet()
	fnet := transport.NewFaultNet(inner, transport.FaultNetConfig{
		Seed: 11,
		Faults: func(transport.NodeID, transport.NodeID) transport.LinkFaults {
			return transport.LinkFaults{
				Base: time.Millisecond, Jitter: 2 * time.Millisecond,
				Loss: 0.30, Reorder: 0.05,
			}
		},
	})
	ks := NewKeyspace(KeyspaceConfig{
		Shards:   2,
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  fnet,
		Options:  Options{Memoize: true, Prune: true, BatchSize: 8},
	})
	defer func() {
		ks.Close()
		fnet.Close()
		inner.Close()
	}()
	ks.StartLiveGossip(2 * time.Millisecond)
	ks.StartLiveRetransmit(25 * time.Millisecond)
	ks.StartLiveBatchFlush(time.Millisecond)

	const (
		clients      = 2
		opsPerClient = 150
		window       = 16
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	allIDs := make([][]ops.ID, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			obj := fmt.Sprintf("loss-%d", c)
			client := ks.Client(fmt.Sprintf("lc%d", c))
			sem := make(chan struct{}, window)
			var inflight sync.WaitGroup
			ids := make([]ops.ID, 0, opsPerClient)
			for i := 0; i < opsPerClient; i++ {
				sem <- struct{}{}
				inflight.Add(1)
				x := client.Submit(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false, func(r Response) {
					if r.Err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = r.Err
						}
						mu.Unlock()
					}
					<-sem
					inflight.Done()
				})
				ids = append(ids, x.ID)
			}
			inflight.Wait()
			allIDs[c] = ids
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Heal halfway through the expected run so the pipeline drains on a
	// clean network: liveness up to that point rode on the retransmission
	// ticker alone.
	time.Sleep(500 * time.Millisecond)
	fnet.Heal()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pipelined submissions never drained after healing — retransmission lost an operation")
	}
	if firstErr != nil {
		t.Fatalf("operation answered with error: %v", firstErr)
	}
	if st := fnet.Stats(); st.LossDropped == 0 {
		t.Fatalf("the lossy phase dropped nothing — the regression scenario did not occur: %+v", st)
	}

	// Exact strict read-back per object: the counter must equal the
	// acknowledged adds — fewer means a lost op was acked, more means a
	// retransmitted duplicate was applied twice.
	for c := 0; c < clients; c++ {
		obj := fmt.Sprintf("loss-%d", c)
		client := ks.Client(fmt.Sprintf("lc%d", c))
		_, v, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), allIDs[c], true)
		if err != nil {
			t.Fatalf("strict read-back of %s: %v", obj, err)
		}
		if got, _ := v.(int64); got != opsPerClient {
			t.Fatalf("object %s reads back %v, want exactly %d (lost or double-applied under 30%% loss)", obj, v, opsPerClient)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if conv := ks.CheckConvergence(); conv.Converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("keyspace never converged after healing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if faults := ks.Faults(); len(faults) > 0 {
		t.Fatalf("replica faults under honest loss chaos: %v", faults)
	}
}
