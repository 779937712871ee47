package core

import (
	"runtime"
	"strconv"
	"sync"

	"esds/internal/ring"
	"esds/internal/transport"
)

// ShardRuntime is the shard-per-core replica runtime: a fixed pool of
// worker goroutines, each exclusively owning the state of the replicas
// pinned to it. Shards are pinned to workers by the same consistent-hash
// ring that routes objects to shards, so all replicas of one shard share
// one worker and never contend with another shard's lock — the cross-shard
// independence the paper's per-replica automata already have by
// construction, restored at the execution level (see DESIGN.md §9).
//
// Message flow: the transport hands each delivery to a per-replica inbound
// queue (synchronously, when the transport supports inline registration —
// no intermediate mailbox goroutine); the owning worker drains a queue's
// whole backlog in one scheduling round and the replica folds consecutive
// hot-path messages into a single locked batch. Workers round-robin over
// their ready queues, so one hot replica cannot starve its shard-mates.
//
// A ShardRuntime is shared by every shard of one service. Close stops the
// workers after draining queued work; it must be called after the
// transport is closed (so no new deliveries race the drain).
type ShardRuntime struct {
	workers []*rtWorker
	ring    ring.Ring
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// rtWorker is one worker goroutine's shared state: the list of replica
// queues with pending work. Replica state itself is touched only by the
// worker, never under this mutex.
type rtWorker struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ready  []*replicaQueue
	closed bool
}

// replicaQueue is one replica's inbound work queue, owned by exactly one
// worker. items is protected by the worker's mutex; the drained batch is
// processed outside it.
type replicaQueue struct {
	w      *rtWorker
	r      *Replica
	items  []queueItem
	queued bool // already on the worker's ready list
}

// queueItem is one unit of replica work: a delivered transport message, or
// a function dispatched onto the owning worker (ticker work such as gossip
// rounds, so that it serializes with message handling).
type queueItem struct {
	msg transport.Message
	fn  func()
}

// NewShardRuntime starts a worker pool. workers ≤ 0 sizes the pool from
// GOMAXPROCS — one worker per schedulable core, the configuration esds.New
// and esds-server run.
func NewShardRuntime(workers int) *ShardRuntime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rt := &ShardRuntime{
		workers: make([]*rtWorker, workers),
		ring:    ring.New(workers),
	}
	for i := range rt.workers {
		w := &rtWorker{}
		w.cond = sync.NewCond(&w.mu)
		rt.workers[i] = w
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			w.run()
		}()
	}
	return rt
}

// Workers returns the pool size.
func (rt *ShardRuntime) Workers() int { return len(rt.workers) }

// WorkerFor reports which worker owns the given shard. The pinning is
// deterministic (consistent hash over the worker pool), so tests can
// arrange shards on distinct workers and a grown shard (online resize)
// lands on the same worker in every process.
func (rt *ShardRuntime) WorkerFor(shard int) int {
	return rt.ring.ShardOf("shard:" + strconv.Itoa(shard))
}

// attach binds a replica of the given shard to its owning worker's queue.
func (rt *ShardRuntime) attach(shard int, r *Replica) *replicaQueue {
	return &replicaQueue{w: rt.workers[rt.WorkerFor(shard)], r: r}
}

// Close drains queued work and stops the workers. Call after the transport
// is closed; enqueues after Close are dropped, matching a closed mailbox.
func (rt *ShardRuntime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		rt.wg.Wait()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	for _, w := range rt.workers {
		w.mu.Lock()
		w.closed = true
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	rt.wg.Wait()
}

// enqueue appends work to q and schedules it on the worker if it is not
// already ready. It reports whether the work was accepted (false once the
// runtime is closed). Safe from any goroutine; never blocks on replica
// work (the worker processes outside this mutex).
func (w *rtWorker) enqueue(q *replicaQueue, it queueItem) bool {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return false
	}
	q.items = append(q.items, it)
	if !q.queued {
		q.queued = true
		w.ready = append(w.ready, q)
		w.cond.Signal()
	}
	w.mu.Unlock()
	return true
}

// run is the worker loop: pop one ready queue, take its whole backlog, and
// let the replica process it as one batch. Queues re-enter the ready list
// on their next enqueue, giving shard-mates round-robin fairness. On close
// the remaining ready queues drain before the worker exits.
func (w *rtWorker) run() {
	for {
		w.mu.Lock()
		for len(w.ready) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.ready) == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		q := w.ready[0]
		w.ready = w.ready[1:]
		batch := q.items
		q.items = nil
		q.queued = false
		w.mu.Unlock()
		q.r.deliverBatch(batch)
	}
}
