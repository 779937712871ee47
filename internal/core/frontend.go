package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
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

	nextSeq uint64
	rr      int                  // round-robin cursor over replicas (unbatched front ends)
	wait    map[ops.ID]pendingOp // wait_c: one record per pending operation
	last    ops.ID               // the operation issued last, for auto-causality helpers
	issued  bool                 // last is set
	closed  error                // non-nil once Close ran; delivered to all waiters

	// Request batching (DESIGN.md §8): with opt.BatchSize > 1 the front end
	// keeps one batch, for its home, which is closed or open. A submission
	// that finds it closed is sent at once and opens it; on an open batch
	// submissions buffer in buf until BatchSize, which is sent at once, or
	// until the next flush tick (Flush, driven by the cluster's batch
	// flusher, Cluster.StartLiveBatchFlush), which sends a partial buffer
	// and closes a batch it finds empty. Moving the home empties and closes
	// the batch: everything buffered is pending and leaves in that tick's
	// re-send. A buffered-but-unsent operation is already in wait, so the
	// retransmission ticker re-sends it if a flush never comes — batching
	// can add latency, never deadlock.
	opt  Options
	buf  []ops.Operation
	open bool

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
	// inFlushSet records membership: set when the batch opens, cleared only
	// by the flusher's pass once the batch is closed.
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

// pendingOp is one operation in wait_c: the operation, the replica it last
// went to, and the callback its first response fires (nil for none).
type pendingOp struct {
	x  ops.Operation
	to transport.NodeID
	cb func(Response)
}

// homeIndex is a batched front end's first home among n replicas: FNV-1a
// of the client name, plus the shard, mod n. It depends on nothing but the
// name, so an in-process client that comes back under its name comes back
// to the same replica (an esds-server -client session names its front ends
// afresh, so each session draws its home anew). Adding the shard spreads
// one client's per-shard front ends over the replica indices, which an
// esds-server fleet without -place hosts on different members.
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
		wait:     make(map[ops.ID]pendingOp),
		opt:      cfg.Options,
	}
	if fe.opt.BatchSize > 1 {
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
	x := ops.New(op, ops.ID{Client: fe.client, Seq: fe.nextSeq}, prev, strict)
	fe.nextSeq++
	fe.admit(x, cb)
	return x
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
	if _, dup := fe.wait[x.ID]; dup {
		fe.mu.Unlock()
		return
	}
	fe.admit(x, cb)
}

// admit is the admission path Submit and SubmitOp share. Called with the
// mutex held, it releases it: a closed front end fails x at once; otherwise
// x enters wait_c and is relayed as dispatchLocked decides.
func (fe *FrontEnd) admit(x ops.Operation, cb func(Response)) {
	if err := fe.closed; err != nil {
		fe.mu.Unlock()
		if cb != nil {
			cb(Response{ID: x.ID, Err: err})
		}
		return
	}
	fe.last, fe.issued = x.ID, true
	to, payload := fe.dispatchLocked(x)
	fe.wait[x.ID] = pendingOp{x: x, to: to, cb: cb}
	fe.mu.Unlock()
	if payload != nil {
		fe.net.Send(fe.node, to, payload)
	}
}

// dispatchLocked assigns x, not yet in wait, its target — the next
// round-robin replica when batching is off, the home when it is on — and
// returns the message to send now: a lone RequestMsg when batching is off,
// the batch was closed (x opens it) or nothing else is pending, a full
// BatchRequestMsg when x topped the buffer up to BatchSize, or nil when x
// joined a partial batch (a later submission, Flush, or the retransmission
// ticker moves it). Mutex held; callers send outside it.
func (fe *FrontEnd) dispatchLocked(x ops.Operation) (to transport.NodeID, payload any) {
	fe.requests++
	if fe.opt.BatchSize <= 1 {
		to = fe.replicas[fe.rr%len(fe.replicas)]
		fe.rr++
		return to, RequestMsg{Op: x}
	}
	to = fe.replicas[fe.home]
	if fe.owed == 0 {
		fe.owed = 1
	}
	if !fe.open {
		fe.open = true
		if fe.join != nil && !fe.inFlushSet {
			fe.inFlushSet = true
			fe.join(fe)
		}
		return to, RequestMsg{Op: x}
	}
	if len(fe.wait) == 0 {
		// Nothing else is in flight for x to share a frame with: a client
		// that waits for each answer never waits for a flush tick.
		return to, RequestMsg{Op: x}
	}
	fe.buf = append(fe.buf, x)
	if len(fe.buf) < fe.opt.BatchSize {
		return to, nil
	}
	full := fe.buf
	fe.buf = nil
	return to, BatchRequestMsg{Ops: full}
}

// Flush runs one explicit flush tick: it sends a partially filled request
// batch immediately, or closes the batch if nothing is buffered; a no-op
// when batching is off. The cluster's batch flusher runs the same tick for
// every front end in its flush set (Cluster.StartLiveBatchFlush).
func (fe *FrontEnd) Flush() { fe.flush(false) }

// flush is one flush tick. From the cluster's flush pass (fromSet) it also
// reports whether the front end stays in the flush set, and leaves it, under
// the same lock, when the batch is closed: the submission that opens it
// re-joins it. Nothing is buffered while the batch is closed (batching off,
// the front end closed, the home just moved), so such a tick sends nothing.
func (fe *FrontEnd) flush(fromSet bool) (stay bool) {
	fe.mu.Lock()
	to, buffered := fe.replicas[fe.home], fe.buf
	fe.buf = nil
	fe.open = fe.open && len(buffered) > 0
	if fromSet {
		fe.inFlushSet = fe.open
	}
	stay = fe.open
	fe.mu.Unlock()
	fe.sendBatched(to, buffered)
	return stay
}

// Cancel withdraws a pending operation without firing its callback: the
// router is moving it to another shard's front end, or its caller gave up
// (SubmitWaitCtx). An operation still in the batch buffer leaves it, so
// no replica ever receives it; one already sent may still be executed. It
// reports whether the operation was still pending (false means a response
// already won the race and the callback has fired or is firing).
func (fe *FrontEnd) Cancel(id ops.ID) bool {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if _, pending := fe.wait[id]; !pending {
		return false
	}
	delete(fe.wait, id)
	fe.buf = slices.DeleteFunc(fe.buf, func(x ops.Operation) bool { return x.ID == id })
	return true
}

// ProbeAll re-sends a pending operation to EVERY replica at once — the
// router's fast path for collecting one verdict (response or Redirect)
// per replica after a resize touched the operation's object, instead of
// waiting for the retransmission ticker to rotate through them.
func (fe *FrontEnd) ProbeAll(id ops.ID) {
	fe.mu.Lock()
	p, pending := fe.wait[id]
	replicas := fe.replicas
	fe.mu.Unlock()
	if !pending {
		return // answered, cancelled, or the front end is closed
	}
	for _, to := range replicas {
		fe.net.Send(fe.node, to, RequestMsg{Op: p.x})
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
	failed := fe.wait
	fe.wait = make(map[ops.ID]pendingOp)
	fe.buf, fe.open = nil, false
	fe.mu.Unlock()
	for id, p := range failed {
		if p.cb != nil {
			p.cb(Response{ID: id, Err: err})
		}
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
	recs := make([]pendingOp, 0, len(fe.wait))
	for _, p := range fe.wait {
		recs = append(recs, p)
	}
	slices.SortFunc(recs, func(a, b pendingOp) int { return cmp.Compare(a.x.ID.Seq, b.x.ID.Seq) })
	n := len(fe.replicas)
	if fe.opt.BatchSize <= 1 {
		for i := range recs {
			p := &recs[i]
			next := fe.replicas[fe.rr%n]
			fe.rr++
			if p.to == next && n > 1 {
				next = fe.replicas[fe.rr%n]
				fe.rr++
			}
			p.to = next
			fe.wait[p.x.ID] = *p
		}
		fe.mu.Unlock()
		for _, p := range recs {
			fe.net.Send(fe.node, p.to, RequestMsg{Op: p.x})
		}
		return len(recs)
	}
	// The home moves when it has owed an answer since before the previous
	// tick: a healthy home answers within a tick, so it is never left, and
	// a crashed or cut-off one is left at the second tick after the first
	// submission it did not answer. Moving empties and closes the batch:
	// everything buffered is pending, so it leaves in the re-send below.
	switch {
	case fe.owed == 2 && n > 1:
		fe.home = (fe.home + 1) % n
		fe.owed = 0
		fe.buf, fe.open = nil, false
	case fe.owed > 0:
		fe.owed = 2
	}
	// Every re-send goes to the replica after the home, unless that is
	// where the operation last went (it was re-sent there last tick and the
	// home stayed, or, with two replicas, it was submitted to the home this
	// tick left); then it goes to the replica after that.
	to, alt := fe.replicas[(fe.home+1)%n], fe.replicas[(fe.home+2)%n]
	resend := make([]ops.Operation, 0, len(recs))
	var stuck []ops.Operation
	for i := range recs {
		p := &recs[i]
		if p.to == to && n > 1 {
			p.to = alt
			stuck = append(stuck, p.x)
		} else {
			p.to = to
			resend = append(resend, p.x)
		}
		fe.wait[p.x.ID] = *p
	}
	fe.mu.Unlock()
	fe.sendBatched(to, resend)
	fe.sendBatched(alt, stuck)
	return len(recs)
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
	p, waiting := fe.wait[resp.ID]
	if !waiting {
		fe.mu.Unlock()
		return // duplicate or stale response
	}
	delete(fe.wait, resp.ID)
	fe.responses++
	fe.mu.Unlock()
	if p.cb != nil {
		p.cb(Response{ID: resp.ID, Value: resp.Value})
	}
}

// NextTarget returns the replica the next submission goes to, without
// issuing one: the home for a batched front end, the round-robin cursor
// otherwise (used by tests to pin expectations).
func (fe *FrontEnd) NextTarget() transport.NodeID {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.opt.BatchSize > 1 {
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
