package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/transport"
)

// ErrClosed is the error delivered to every outstanding (and future)
// operation of a closed front end: the service shut down before a replica's
// response arrived, so the operation's outcome is unknown — it may or may
// not enter the eventual total order.
var ErrClosed = errors.New("core: front end closed")

// Response pairs an operation with the value the service returned for it.
// Err is non-nil when no value will ever arrive (the front end was closed
// while the operation was pending); Value is then meaningless.
type Response struct {
	ID    ops.ID
	Value dtype.Value
	Err   error
}

// FrontEnd is the per-client front end of Fig. 6: it relays requests to
// replicas, tracks pending operations (wait_c), records replica responses
// (rept_c), and delivers exactly one response per request to the client.
//
// Per §6.2, the client identity is encoded in every operation identifier,
// and per the paper's send_cr, a front end may retransmit a pending request
// — to the same or a different replica — without affecting safety.
type FrontEnd struct {
	mu sync.Mutex

	client   string
	node     transport.NodeID
	net      transport.Network
	replicas []transport.NodeID

	nextSeq  uint64
	rr       int // round-robin cursor over replicas (unbatched front ends)
	wait     map[ops.ID]ops.Operation
	sentTo   map[ops.ID]transport.NodeID
	onResult map[ops.ID]func(Response)
	last     ops.ID // the operation issued last, for auto-causality helpers
	issued   bool   // last is set
	closed   error  // non-nil once Close ran; delivered to all waiters

	// Request batching (DESIGN.md §8): with opt.BatchSize > 1, every
	// replica target is closed or open, and open exactly when batch holds
	// a key for it. A submission to a closed target is sent at once and
	// opens it; on an open target submissions buffer until BatchSize, which
	// is sent at once, or until the next flush tick (Flush, driven by the
	// cluster's batch flusher, Cluster.StartLiveBatchFlush), which sends
	// every partial buffer and closes every target it finds empty. A
	// buffered-but-unsent operation is already in wait, so the
	// retransmission ticker re-sends it if a flush never comes — batching
	// can add latency, never deadlock.
	opt   Options
	batch map[transport.NodeID][]ops.Operation

	// Home routing (DESIGN.md §8): a batched front end sends every
	// submission to replicas[home], so one client's stream fills one
	// target's batches instead of splitting across all of them. owed is 0
	// while the home owes no answer; the first submission after the home's
	// last response sets it to 1 and each Retransmit tick raises it, so it
	// reads 2 once the home has owed an answer across a whole tick, and the
	// next tick moves the home to the next replica.
	home int
	owed int

	// join puts the front end in its cluster's flush set (nil for a front
	// end built outside a Cluster, which only explicit Flush calls tick).
	// inFlushSet records membership: set here when a target opens, cleared
	// only by the flusher's pass once no target is left open.
	join       func(*FrontEnd)
	inFlushSet bool

	// onRedirect, when set, receives Redirect refusals (live resharding's
	// "wrong shard" replies) for pending operations; the operation STAYS
	// pending — only the router decides when to cancel and replay it.
	// Without a handler, redirects are ignored and retransmission keeps
	// probing (a resize-oblivious front end simply never completes ops on
	// moved keys; use KeyspaceClient for resize-aware submission).
	onRedirect func(id ops.ID, rd Redirect)

	responses uint64
	requests  uint64
}

// homeIndex is a batched front end's first home among n replicas: FNV-1a
// of the client name, plus the shard, mod n. It is the same in every
// process, so a restarted client comes back to the same replica; adding
// the shard spreads one client's per-shard front ends over the replica
// indices, which an esds-server fleet without -place hosts on different
// members.
func homeIndex(client string, shard, n int) int {
	h := fnv.New32a()
	h.Write([]byte(client))
	return int((uint64(h.Sum32()) + uint64(shard)) % uint64(n))
}

// FrontEndConfig assembles a front end.
type FrontEndConfig struct {
	Client   string
	Replicas []transport.NodeID
	Network  transport.Network
	// Shard selects the keyspace shard this front end belongs to. Shard 0
	// (the default, and the only shard of an unsharded cluster) keeps the
	// legacy transport names.
	Shard int
	// Options carries the batching knobs (BatchSize, BatchDelay); the
	// algorithmic options are replica-side and ignored here. Cluster fills
	// this from its own options.
	Options Options
}

// NewFrontEnd constructs a front end and registers it on the network under
// the FrontEndNode convention.
func NewFrontEnd(cfg FrontEndConfig) *FrontEnd {
	return newFrontEnd(cfg, true)
}

// newFrontEnd optionally skips network registration — used by Cluster to
// hand out already-closed front ends after Close, when the transport no
// longer accepts registrations.
func newFrontEnd(cfg FrontEndConfig, register bool) *FrontEnd {
	if cfg.Client == "" {
		panic("core: empty client name")
	}
	if len(cfg.Replicas) == 0 {
		panic("core: front end needs at least one replica")
	}
	fe := &FrontEnd{
		client:   cfg.Client,
		node:     FrontEndNodeIn(cfg.Shard, cfg.Client),
		net:      cfg.Network,
		replicas: append([]transport.NodeID(nil), cfg.Replicas...),
		wait:     make(map[ops.ID]ops.Operation),
		sentTo:   make(map[ops.ID]transport.NodeID),
		onResult: make(map[ops.ID]func(Response)),
		opt:      cfg.Options,
	}
	if fe.opt.BatchSize > 1 {
		fe.batch = make(map[transport.NodeID][]ops.Operation)
		fe.home = homeIndex(cfg.Client, cfg.Shard, len(fe.replicas))
	}
	if register {
		cfg.Network.Register(fe.node, fe.handleMessage)
	}
	return fe
}

// Client returns the client name this front end serves.
func (fe *FrontEnd) Client() string { return fe.client }

// Node returns the front end's transport address.
func (fe *FrontEnd) Node() transport.NodeID { return fe.node }

// Submit issues a request (the request(x) input action): it allocates the
// next operation identifier for this client, records the operation in
// wait_c, and relays it to one replica. The callback fires exactly once —
// when the first response for the operation arrives, or with Response.Err
// set if the front end is (or gets) closed first. It returns the operation
// descriptor (whose ID the client may use in later prev sets).
func (fe *FrontEnd) Submit(op dtype.Operator, prev []ops.ID, strict bool, cb func(Response)) ops.Operation {
	fe.mu.Lock()
	id := ops.ID{Client: fe.client, Seq: fe.nextSeq}
	fe.nextSeq++
	x := ops.New(op, id, prev, strict)
	if err := fe.closed; err != nil {
		fe.mu.Unlock()
		if cb != nil {
			cb(Response{ID: id, Err: err})
		}
		return x
	}
	fe.wait[id] = x
	if cb != nil {
		fe.onResult[id] = cb
	}
	fe.last, fe.issued = id, true
	to, payload := fe.dispatchLocked(x)
	fe.mu.Unlock()

	if payload != nil {
		fe.net.Send(fe.node, to, payload)
	}
	return x
}

// dispatchLocked assigns x its target — the next round-robin replica when
// batching is off, the home when it is on — and returns the message to
// send now: a lone RequestMsg when batching is off, the target was closed
// (x opens it) or x is the only pending operation, a full BatchRequestMsg
// when x topped an open target's buffer up to BatchSize, or nil when x
// joined a partial batch (a later submission, Flush, or the retransmission
// ticker moves it). Mutex held; callers send outside it.
func (fe *FrontEnd) dispatchLocked(x ops.Operation) (to transport.NodeID, payload any) {
	fe.requests++
	if fe.batch == nil {
		target := fe.replicas[fe.rr%len(fe.replicas)]
		fe.rr++
		fe.sentTo[x.ID] = target
		return target, RequestMsg{Op: x}
	}
	target := fe.replicas[fe.home]
	fe.sentTo[x.ID] = target
	if fe.owed == 0 {
		fe.owed = 1
	}
	buffered, open := fe.batch[target]
	if !open {
		fe.batch[target] = nil
		if fe.join != nil && !fe.inFlushSet {
			fe.inFlushSet = true
			fe.join(fe)
		}
		return target, RequestMsg{Op: x}
	}
	if len(fe.wait) == 1 {
		// Nothing else is in flight for x to share a frame with: a client
		// that waits for each answer never waits for a flush tick.
		return target, RequestMsg{Op: x}
	}
	buffered = append(buffered, x)
	if len(buffered) < fe.opt.BatchSize {
		fe.batch[target] = buffered
		return target, nil
	}
	fe.batch[target] = nil
	return target, BatchRequestMsg{Ops: buffered}
}

// Flush runs one explicit flush tick: it sends every partially filled
// request batch immediately and closes every open target with nothing
// buffered; a no-op when batching is off. The cluster's batch flusher runs
// the same tick for every front end in its flush set
// (Cluster.StartLiveBatchFlush).
func (fe *FrontEnd) Flush() { fe.flush(false) }

// flush is one flush tick. From the cluster's flush pass (fromSet) it also
// reports whether the front end stays in the flush set, and leaves it, under
// the same lock, when no target is left open: the submission that opens one
// re-joins it.
func (fe *FrontEnd) flush(fromSet bool) (stay bool) {
	fe.mu.Lock()
	if fe.batch == nil || fe.closed != nil {
		if fromSet {
			fe.inFlushSet = false
		}
		fe.mu.Unlock()
		return false
	}
	type outMsg struct {
		to  transport.NodeID
		msg any
	}
	var outbox []outMsg
	for to, buffered := range fe.batch {
		switch len(buffered) {
		case 0:
			delete(fe.batch, to)
			continue
		case 1:
			outbox = append(outbox, outMsg{to: to, msg: RequestMsg{Op: buffered[0]}})
		default:
			outbox = append(outbox, outMsg{to: to, msg: BatchRequestMsg{Ops: buffered}})
		}
		fe.batch[to] = nil
	}
	stay = len(fe.batch) > 0
	if fromSet {
		fe.inFlushSet = stay
	}
	fe.mu.Unlock()
	for _, o := range outbox {
		fe.net.Send(fe.node, o.to, o.msg)
	}
	return stay
}

// SubmitOp relays an externally assembled operation — identifier included
// — to one replica, for callers that own identifier allocation across
// several front ends (KeyspaceClient allocates one sequence per client
// across all shards, so an operation replayed on a different shard after
// a resize keeps its identity). The callback contract matches Submit.
// Submitting an id this front end already has pending is ignored (the
// existing registration wins).
func (fe *FrontEnd) SubmitOp(x ops.Operation, cb func(Response)) {
	fe.mu.Lock()
	if err := fe.closed; err != nil {
		fe.mu.Unlock()
		if cb != nil {
			cb(Response{ID: x.ID, Err: err})
		}
		return
	}
	if _, dup := fe.wait[x.ID]; dup {
		fe.mu.Unlock()
		return
	}
	fe.wait[x.ID] = x
	if cb != nil {
		fe.onResult[x.ID] = cb
	}
	fe.last, fe.issued = x.ID, true
	to, payload := fe.dispatchLocked(x)
	fe.mu.Unlock()

	if payload != nil {
		fe.net.Send(fe.node, to, payload)
	}
}

// Cancel withdraws a pending operation without firing its callback: the
// router is moving it to another shard's front end. It reports whether
// the operation was still pending (false means a response already won the
// race and the callback has fired or is firing).
func (fe *FrontEnd) Cancel(id ops.ID) bool {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if _, pending := fe.wait[id]; !pending {
		return false
	}
	delete(fe.wait, id)
	delete(fe.sentTo, id)
	delete(fe.onResult, id)
	return true
}

// ProbeAll re-sends a pending operation to EVERY replica at once — the
// router's fast path for collecting one verdict (response or Redirect)
// per replica after a resize touched the operation's object, instead of
// waiting for the retransmission ticker to rotate through them.
func (fe *FrontEnd) ProbeAll(id ops.ID) {
	fe.mu.Lock()
	x, pending := fe.wait[id]
	replicas := fe.replicas
	closed := fe.closed
	fe.mu.Unlock()
	if !pending || closed != nil {
		return
	}
	for _, to := range replicas {
		fe.net.Send(fe.node, to, RequestMsg{Op: x})
	}
}

// SetRedirectHandler installs the Redirect callback (see the onRedirect
// field). Must be set before redirects can arrive; the KeyspaceClient
// sets it when it adopts a front end.
func (fe *FrontEnd) SetRedirectHandler(h func(id ops.ID, rd Redirect)) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	fe.onRedirect = h
}

// SubmitWait issues a request and blocks until the response arrives or the
// front end is closed (then the error is ErrClosed and the value is nil).
// It never blocks forever: message loss is healed by Retransmit — wire a
// ticker with Cluster.StartLiveRetransmit — and shutdown fails all waiters.
// Only meaningful on the live transports (on the simulated network the
// caller IS the delivering goroutine, so use Submit with a callback
// instead).
func (fe *FrontEnd) SubmitWait(op dtype.Operator, prev []ops.ID, strict bool) (ops.Operation, dtype.Value, error) {
	return fe.SubmitWaitCtx(context.Background(), op, prev, strict)
}

// SubmitWaitCtx is SubmitWait with cancellation: when ctx is done before the
// response arrives, the operation is withdrawn from the pending set (so the
// retransmission ticker stops re-sending it) and ctx.Err() is returned. The
// operation may still enter the eventual total order — a replica that already
// accepted it will do it regardless; cancellation only unparks the waiter.
// If a response wins the race against the cancellation, it is delivered
// normally: the outcome is then known, so it is returned instead of ctx.Err().
func (fe *FrontEnd) SubmitWaitCtx(ctx context.Context, op dtype.Operator, prev []ops.ID, strict bool) (ops.Operation, dtype.Value, error) {
	ch := make(chan Response, 1)
	x := fe.Submit(op, prev, strict, func(resp Response) { ch <- resp })
	select {
	case resp := <-ch:
		return x, resp.Value, resp.Err
	case <-ctx.Done():
	}
	if fe.Cancel(x.ID) {
		return x, nil, ctx.Err()
	}
	// Cancel lost the race: the callback has fired or is firing, so the
	// buffered channel receives without blocking. Report the real outcome.
	resp := <-ch
	return x, resp.Value, resp.Err
}

// Close fails every outstanding waiter with err (ErrClosed when nil) and
// makes all future Submits fail immediately. It is idempotent and safe to
// call while operations are in flight: each pending callback fires exactly
// once, with Response.Err set.
func (fe *FrontEnd) Close(err error) {
	if err == nil {
		err = ErrClosed
	}
	fe.mu.Lock()
	if fe.closed != nil {
		fe.mu.Unlock()
		return
	}
	fe.closed = err
	failed := make(map[ops.ID]func(Response), len(fe.onResult))
	for id, cb := range fe.onResult {
		failed[id] = cb
	}
	fe.wait = make(map[ops.ID]ops.Operation)
	fe.sentTo = make(map[ops.ID]transport.NodeID)
	fe.onResult = make(map[ops.ID]func(Response))
	if fe.batch != nil {
		fe.batch = make(map[transport.NodeID][]ops.Operation)
	}
	fe.mu.Unlock()
	for id, cb := range failed {
		cb(Response{ID: id, Err: err})
	}
}

// Closed returns the error the front end was closed with, or nil while it
// is still accepting operations.
func (fe *FrontEnd) Closed() error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.closed
}

// Retransmit re-sends every pending request, each to a replica other than
// the one it last went to. This is the fault-tolerance mechanism the paper
// permits (§6.2): duplicate requests do not affect safety, and
// retransmission restores liveness after message loss or a replica crash.
// Unbatched, each re-send takes the next round-robin replica. Batched, the
// home first moves to the next replica if it has owed an answer across a
// whole tick, and then the re-sends go to the replica after the home,
// packed into BatchRequestMsg frames: a deep pipeline re-transmits its
// whole window each tick, and doing that singly would hand the unbatched
// per-frame cost right back.
func (fe *FrontEnd) Retransmit() int {
	fe.mu.Lock()
	if fe.closed != nil {
		fe.mu.Unlock()
		return 0
	}
	// Re-send in issue order (ids are sequential per client): a dependent
	// operation then always reaches the replica after the operation its prev
	// names, so one retransmission round suffices to unpark a whole chain —
	// map-order iteration could need a round per link.
	ids := make([]ops.ID, 0, len(fe.wait))
	for id := range fe.wait {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Seq < ids[j].Seq })
	n := len(fe.replicas)
	if fe.batch == nil {
		type outMsg struct {
			to  transport.NodeID
			msg RequestMsg
		}
		outbox := make([]outMsg, 0, len(ids))
		for _, id := range ids {
			next := fe.replicas[fe.rr%n]
			fe.rr++
			if fe.sentTo[id] == next && n > 1 {
				next = fe.replicas[fe.rr%n]
				fe.rr++
			}
			fe.sentTo[id] = next
			outbox = append(outbox, outMsg{to: next, msg: RequestMsg{Op: fe.wait[id]}})
		}
		fe.mu.Unlock()
		for _, o := range outbox {
			fe.net.Send(fe.node, o.to, o.msg)
		}
		return len(outbox)
	}
	// The home moves when it has owed an answer since before the previous
	// tick: a healthy home answers within a tick, so it is never left, and
	// a crashed or cut-off one is left at the second tick after the first
	// submission it did not answer.
	switch {
	case fe.owed == 2 && n > 1:
		fe.home = (fe.home + 1) % n
		fe.owed = 0
	case fe.owed > 0:
		fe.owed = 2
	}
	// Every re-send goes to the replica after the home, unless that is
	// where the operation last went (it was re-sent there last tick and the
	// home stayed, or, with two replicas, it was submitted to the home this
	// tick left); then it goes to the replica after that.
	to, alt := fe.replicas[(fe.home+1)%n], fe.replicas[(fe.home+2)%n]
	resend := make([]ops.Operation, 0, len(ids))
	var stuck []ops.Operation
	for _, id := range ids {
		if fe.sentTo[id] == to && n > 1 {
			fe.sentTo[id] = alt
			stuck = append(stuck, fe.wait[id])
		} else {
			fe.sentTo[id] = to
			resend = append(resend, fe.wait[id])
		}
	}
	fe.mu.Unlock()
	fe.sendBatched(to, resend)
	fe.sendBatched(alt, stuck)
	return len(ids)
}

// sendBatched sends xs to one replica in issue order, cut into frames of at
// most BatchSize operations (a lone operation goes as a RequestMsg).
func (fe *FrontEnd) sendBatched(to transport.NodeID, xs []ops.Operation) {
	for len(xs) > 0 {
		n := min(len(xs), fe.opt.BatchSize)
		if n == 1 {
			fe.net.Send(fe.node, to, RequestMsg{Op: xs[0]})
		} else {
			fe.net.Send(fe.node, to, BatchRequestMsg{Ops: xs[:n:n]})
		}
		xs = xs[n:]
	}
}

// Pending returns the number of requests still awaiting a response.
func (fe *FrontEnd) Pending() int {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return len(fe.wait)
}

// Stats returns (requests issued, responses delivered).
func (fe *FrontEnd) Stats() (requests, responses uint64) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.requests, fe.responses
}

// LastID returns the identifier of the most recently issued operation and
// whether one exists — a convenience for building causal chains
// (prev = {last}).
func (fe *FrontEnd) LastID() (ops.ID, bool) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.last, fe.issued
}

// handleMessage processes replica responses (receive_rc of Fig. 6): the
// first response for a pending operation is delivered to the client and the
// operation leaves wait_c; later duplicates are ignored. A BatchResponseMsg
// is exactly the sequence of its elements.
func (fe *FrontEnd) handleMessage(m transport.Message) {
	switch p := m.Payload.(type) {
	case ResponseMsg:
		fe.handleResponse(m.From, p)
	case BatchResponseMsg:
		for _, resp := range p.Resps {
			fe.handleResponse(m.From, resp)
		}
	}
}

// heardLocked notes that from answered: if it is the home, the home owes
// nothing any more. Mutex held.
func (fe *FrontEnd) heardLocked(from transport.NodeID) {
	if from == fe.replicas[fe.home] {
		fe.owed = 0
	}
}

// handleResponse delivers one replica response (or Redirect refusal) that
// arrived from the replica from.
func (fe *FrontEnd) handleResponse(from transport.NodeID, resp ResponseMsg) {
	if resp.Redirect != nil {
		// A "wrong shard" refusal, not a response: the operation stays
		// pending (the replica did NOT accept it) and the router decides
		// what to do. Read the handler and pending-ness under the lock,
		// call outside it.
		fe.mu.Lock()
		fe.heardLocked(from)
		h := fe.onRedirect
		_, waiting := fe.wait[resp.ID]
		fe.mu.Unlock()
		if h != nil && waiting {
			h(resp.ID, *resp.Redirect)
		}
		return
	}
	fe.mu.Lock()
	fe.heardLocked(from)
	if _, waiting := fe.wait[resp.ID]; !waiting {
		fe.mu.Unlock()
		return // duplicate or stale response
	}
	delete(fe.wait, resp.ID)
	delete(fe.sentTo, resp.ID)
	cb := fe.onResult[resp.ID]
	delete(fe.onResult, resp.ID)
	fe.responses++
	fe.mu.Unlock()
	if cb != nil {
		cb(Response{ID: resp.ID, Value: resp.Value})
	}
}

// NextTarget returns the replica the next submission goes to, without
// issuing one: the home for a batched front end, the round-robin cursor
// otherwise (used by tests to pin expectations).
func (fe *FrontEnd) NextTarget() transport.NodeID {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.batch != nil {
		return fe.replicas[fe.home]
	}
	return fe.replicas[fe.rr%len(fe.replicas)]
}

// StickTo pins the front end to a single replica (disables round-robin and
// the home). §9.2 notes that a client whose front end always talks to the
// same replica gets the fast 2·d_f path for its causal chains. It also
// turns off failover: retransmission re-sends to the same replica, so a
// pinned front end waits out a crash of its replica instead of leaving it.
func (fe *FrontEnd) StickTo(replica transport.NodeID) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	for i, node := range fe.replicas {
		if node == replica {
			fe.replicas = []transport.NodeID{fe.replicas[i]}
			fe.rr, fe.home = 0, 0
			return
		}
	}
	panic(fmt.Sprintf("core: StickTo(%q): unknown replica", replica))
}
