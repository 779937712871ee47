package core

import (
	"esds/internal/ops"
	"esds/internal/transport"
)

// The replica's shell (DESIGN.md §1). Fig. 7's steps reach other replicas
// and clients only through send actions, and §9.3 adds that nothing may
// expose a label before the label is on stable storage. So there is one
// way in and one way out: every entry point runs its locked body through
// step, which collects what the body sends in one outbox, and release
// sends it — what carries no label at once, then one group commit of the
// step's journal records, then everything that carries labels (DESIGN.md
// §10, "Ack-after-durable").

// outMsg is one message of an outbox, with its destination.
type outMsg struct {
	to  transport.NodeID
	msg any
}

// responseOut is one response awaiting send, with its destination.
type responseOut struct {
	to  transport.NodeID
	msg ResponseMsg
}

// answer is a response respondPending collects, with the rank of its front
// end among the step's (1 for the front end answered first).
type answer struct {
	responseOut
	rank uint32
}

// outbox is what one step sends.
type outbox struct {
	now    []outMsg      // refusals and range requests: no label, so no wait
	resps  []responseOut // responses (respondPending)
	after  []outMsg      // gossip frames, range answers and resize acks
	commit bool          // commit though nothing waits for it
	prompt bool          // a prompt gossip send follows
}

// The first argument of step: whether a crashed replica skips the step.
const (
	skipCrashed = true
	evenCrashed = false
)

// step runs body, one entry point's work, under the mutex and releases
// the outbox it returns. A crashed replica skips it when skip is set.
func (r *Replica) step(skip bool, body func() outbox) {
	var o outbox
	r.mu.Lock()
	if !skip || !r.crashed {
		o = body()
	}
	r.mu.Unlock()
	r.release(&o)
}

// release is the one way out of the replica, called without the mutex so
// the next step can admit and journal while this step's fsync is in
// flight. Refusals and range requests carry no label and leave at once.
// Then one Commit makes every record journaled so far durable, and only
// if it succeeds do the responses, gossip frames, range answers and resize
// acks leave: an acknowledgement reaches the wire only once the operation
// it answers (descriptor and label) is on stable storage, a gossip frame
// or range answer only once the labels it carries are, and a resize ack
// only once the freeze or completion record behind its promise is.
func (r *Replica) release(o *outbox) {
	r.sendAll(o.now)
	if (o.commit || len(o.resps) > 0 || len(o.after) > 0) && r.commitStore() {
		r.sendResponses(o.resps)
		r.sendAll(o.after)
	}
	if o.prompt {
		r.sendGossip(true)
	}
}

// sendAll sends ms in order.
func (r *Replica) sendAll(ms []outMsg) {
	for _, m := range ms {
		r.net.Send(r.node, m.to, m.msg)
	}
}

// commitStore makes every record journaled so far durable — ONE Commit
// (one fsync on a FileStableStore) covering a whole step, the group commit
// of DESIGN.md §10; the store's committer coalesces overlapping commits of
// concurrent steps. A false return means durability failed: the step's
// label-carrying messages are withheld (front ends retransmit, and
// healthy replicas take over the labeling — storeFailed is latched
// exactly as for a failed append). Called without the mutex.
func (r *Replica) commitStore() bool {
	if r.store == nil {
		return true
	}
	err := r.store.Commit()
	if err != nil {
		r.mu.Lock()
		r.fault(FaultStoreFailed, ops.ID{}, "committing journal: %v", err)
		r.storeFailed = true
		r.mu.Unlock()
	}
	return err == nil
}

// sendResponses sends one step's responses in their order. Batched, each
// run of responses to one front end goes as one BatchResponseMsg per
// BatchSize of them (a run of one stays a plain ResponseMsg); unbatched,
// each goes alone. Each batch gets a slice of its own, as the transport
// keeps what it is handed.
func (r *Replica) sendResponses(resps []responseOut) {
	batched := r.opt.BatchSize > 1
	var batches uint64
	for len(resps) > 0 {
		n := 1
		for batched && n < len(resps) && n < r.opt.BatchSize && resps[n].to == resps[0].to {
			n++
		}
		var msg any
		if n == 1 {
			msg = resps[0].msg
		} else {
			batch := make([]ResponseMsg, n)
			for i := range batch {
				batch[i] = resps[i].msg
			}
			msg, batches = BatchResponseMsg{Resps: batch}, batches+1
		}
		r.net.Send(r.node, resps[0].to, msg)
		resps = resps[n:]
	}
	if batches > 0 {
		r.mu.Lock()
		r.metrics.ResponseBatchesSent += batches
		r.mu.Unlock()
	}
}
