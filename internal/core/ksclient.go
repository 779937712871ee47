package core

import (
	"context"
	"fmt"
	"sync"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// Submitter is the common submission surface of FrontEnd and
// KeyspaceClient: the esds public API programs against it so a Client is
// resize-aware when backed by a keyspace and unchanged when backed by a
// single cluster.
type Submitter interface {
	Submit(op dtype.Operator, prev []ops.ID, strict bool, cb func(Response)) ops.Operation
	SubmitWait(op dtype.Operator, prev []ops.ID, strict bool) (ops.Operation, dtype.Value, error)
	SubmitWaitCtx(ctx context.Context, op dtype.Operator, prev []ops.ID, strict bool) (ops.Operation, dtype.Value, error)
}

var (
	_ Submitter = (*FrontEnd)(nil)
	_ Submitter = (*KeyspaceClient)(nil)
)

// KeyspaceClient is the resize-aware router for one client name: it
// allocates ONE identifier sequence across every shard (so an operation
// replayed on another shard after a resize keeps its identity), routes
// each keyed operation to its object's current owner, and resolves the
// Redirect protocol when a live resize moves an object out from under a
// pending operation.
//
// The replay rule is the heart of it: an operation is moved to the
// destination shard only once EVERY replica of the source shard has
// answered a Final Redirect for it. Received ids survive in rcvd_r
// forever and frozen replicas admit no new ones, so n Final refusals are
// proof the source never accepted the operation — replaying it cannot
// double-execute. Conversely an operation the source DID accept is
// answered by the source (some replica has it in rcvd_r and will never
// redirect it), so it is never replayed. Exactly-once either way.
type KeyspaceClient struct {
	ks   *Keyspace
	name string

	mu       sync.Mutex
	nextSeq  uint64
	inflight map[ops.ID]*routedOp
	record   map[ops.ID]int      // answered ops: the shard each completed on
	waiters  map[ops.ID][]ops.ID // prev id → parked dependents
	closed   error
}

// routedOp is one submission the router is shepherding.
type routedOp struct {
	id     ops.ID
	op     dtype.Operator
	object string
	prev   []ops.ID // as given by the caller; translated per target
	strict bool
	cb     func(Response)
	shard  int  // current target shard (meaningless while parked)
	parked bool // waiting for an inflight prev to settle before dispatch
	finals map[label.ReplicaID]Redirect
}

// Client returns the keyspace router for the named client, creating it on
// first use. A client name must stick to ONE submission path — either
// Keyspace.Client or the raw per-shard FrontEnd — because each allocates
// operation sequence numbers independently.
func (k *Keyspace) Client(name string) *KeyspaceClient {
	k.mu.Lock()
	defer k.mu.Unlock()
	if c, ok := k.clients[name]; ok {
		return c
	}
	c := &KeyspaceClient{
		ks:       k,
		name:     name,
		inflight: make(map[ops.ID]*routedOp),
		record:   make(map[ops.ID]int),
		waiters:  make(map[ops.ID][]ops.ID),
	}
	k.clients[name] = c
	return c
}

// Name returns the client name.
func (c *KeyspaceClient) Name() string { return c.name }

// feLocked returns the front end for a shard with this router's redirect
// handler installed. c.mu held (lock order: KeyspaceClient → Keyspace →
// Cluster/FrontEnd).
func (c *KeyspaceClient) feLocked(shard int) *FrontEnd {
	fe := c.ks.Shard(shard).FrontEnd(c.name)
	fe.SetRedirectHandler(func(id ops.ID, rd Redirect) { c.onRedirect(shard, id, rd) })
	return fe
}

// Submit routes a keyed operation (a dtype.KeyedOp, usually built by
// Keyspace.WrapOp) to its object's shard. The callback contract matches
// FrontEnd.Submit: it fires exactly once, with Response.Err set if the
// keyspace closes first.
func (c *KeyspaceClient) Submit(op dtype.Operator, prev []ops.ID, strict bool, cb func(Response)) ops.Operation {
	key, keyed := dtype.KeyOf(op)
	if !keyed {
		panic(fmt.Sprintf("core: KeyspaceClient requires keyed operators, got %T (use Keyspace.WrapOp)", op))
	}
	c.mu.Lock()
	id := ops.ID{Client: c.name, Seq: c.nextSeq}
	c.nextSeq++
	x := ops.New(op, id, prev, strict)
	if err := c.closed; err != nil {
		c.mu.Unlock()
		if cb != nil {
			cb(Response{ID: id, Err: err})
		}
		return x
	}
	ro := &routedOp{id: id, op: op, object: key, prev: append([]ops.ID(nil), prev...), strict: strict, cb: cb}
	c.inflight[id] = ro
	c.dispatchLocked(ro)
	c.mu.Unlock()
	return x
}

// SubmitWait submits and blocks until the response or ErrClosed, like
// FrontEnd.SubmitWait.
func (c *KeyspaceClient) SubmitWait(op dtype.Operator, prev []ops.ID, strict bool) (ops.Operation, dtype.Value, error) {
	return c.SubmitWaitCtx(context.Background(), op, prev, strict)
}

// SubmitWaitCtx is SubmitWait with cancellation, the router-side analogue of
// FrontEnd.SubmitWaitCtx: a done ctx withdraws the operation (parked or
// dispatched) and returns ctx.Err(), unless a response wins the race — the
// outcome is then known and returned instead. As with the front-end form,
// withdrawal only unparks the waiter; a replica that already accepted the
// operation executes it regardless.
func (c *KeyspaceClient) SubmitWaitCtx(ctx context.Context, op dtype.Operator, prev []ops.ID, strict bool) (ops.Operation, dtype.Value, error) {
	ch := make(chan Response, 1)
	x := c.Submit(op, prev, strict, func(r Response) { ch <- r })
	select {
	case r := <-ch:
		return x, r.Value, r.Err
	case <-ctx.Done():
	}
	if c.abandon(x.ID) {
		return x, nil, ctx.Err()
	}
	r := <-ch
	return x, r.Value, r.Err
}

// abandon withdraws an inflight operation without firing its callback: a
// parked operation is simply forgotten; a dispatched one is cancelled at its
// current front end. It reports whether the operation was still inflight and
// was withdrawn (false means a response won the race and the callback has
// fired or is firing). Dependents parked on the abandoned id are woken and
// dispatched — their prev reference passes through verbatim, so if the
// abandoned operation never executes anywhere they wait at the replica like
// any reference to a never-issued operation; abandoning an operation that
// later submissions name is the caller's ambiguity to manage.
func (c *KeyspaceClient) abandon(id ops.ID) bool {
	c.mu.Lock()
	ro, ok := c.inflight[id]
	if !ok {
		c.mu.Unlock()
		return false
	}
	if !ro.parked && !c.feLocked(ro.shard).Cancel(id) {
		c.mu.Unlock()
		return false
	}
	delete(c.inflight, id)
	woken := c.takeWaitersLocked(id)
	for _, wid := range woken {
		if dep, ok := c.inflight[wid]; ok && dep.parked {
			c.dispatchLocked(dep)
		}
	}
	c.mu.Unlock()
	return true
}

// Pending returns the number of operations awaiting a response (parked
// ones included).
func (c *KeyspaceClient) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// dispatchLocked sends (or parks) an operation. An operation whose prev
// set references an operation still in flight TO A DIFFERENT SHARD is
// parked until that operation settles: only then is it knowable whether
// the constraint is satisfiable verbatim (both end up on one shard) or
// must be translated to the object's install (the prev completed on the
// source before the object moved). c.mu held.
func (c *KeyspaceClient) dispatchLocked(ro *routedOp) {
	target := c.ks.ShardOf(ro.object)
	for _, p := range ro.prev {
		if dep, ok := c.inflight[p]; ok && (dep.parked || dep.shard != target) {
			ro.parked = true
			c.waiters[p] = append(c.waiters[p], ro.id)
			return
		}
	}
	ro.parked = false
	ro.shard = target
	ro.finals = make(map[label.ReplicaID]Redirect)
	x := ops.New(ro.op, ro.id, c.translateLocked(ro, target), ro.strict)
	fe := c.feLocked(target)
	id := ro.id
	fe.SubmitOp(x, func(r Response) { c.onResponse(id, r) })
}

// translateLocked rewrites a prev set for submission to target: a
// reference to an operation that completed on a DIFFERENT shard — i.e. a
// source-era operation on an object that has since moved — becomes a
// reference to the object's KeyInstall, which subsumes it (the install
// state contains the referenced operation's effect, and the install is
// ordered before everything the destination runs). With no install
// recorded the reference is dropped: the install-stability invariant
// already orders every destination operation after the migrated state.
// c.mu held.
func (c *KeyspaceClient) translateLocked(ro *routedOp, target int) []ops.ID {
	out := make([]ops.ID, 0, len(ro.prev)+1)
	needInstall := false
	for _, p := range ro.prev {
		if _, ok := c.inflight[p]; ok {
			// Invariant from dispatchLocked (same lock): an inflight prev is
			// co-located with this op's target and not parked — otherwise
			// this op would have been parked instead of translated. Keep the
			// reference verbatim; both ids live (or will complete) here.
			out = append(out, p)
			continue
		}
		if shard, ok := c.record[p]; ok {
			if shard == target {
				out = append(out, p)
			} else {
				needInstall = true
			}
			continue
		}
		out = append(out, p) // foreign id: pass through untouched
	}
	if needInstall {
		if mk, ok := c.ks.installFor(ro.object); ok && mk.HasInstall {
			dup := false
			for _, p := range out {
				if p == mk.InstallID {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, mk.InstallID)
			}
		}
	}
	return out
}

// onResponse completes an operation and wakes its parked dependents.
func (c *KeyspaceClient) onResponse(id ops.ID, r Response) {
	c.mu.Lock()
	ro, ok := c.inflight[id]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.inflight, id)
	c.record[id] = ro.shard
	woken := c.takeWaitersLocked(id)
	for _, wid := range woken {
		if dep, ok := c.inflight[wid]; ok && dep.parked {
			c.dispatchLocked(dep)
		}
	}
	c.mu.Unlock()
	if ro.cb != nil {
		ro.cb(r)
	}
}

// takeWaitersLocked drains the parked dependents of id. c.mu held.
func (c *KeyspaceClient) takeWaitersLocked(id ops.ID) []ops.ID {
	ws := c.waiters[id]
	if ws != nil {
		delete(c.waiters, id)
	}
	return ws
}

// sweepDependentsLocked runs after ro was REPLAYED to another shard: any
// already-dispatched operation whose prev set references ro.id and now
// sits on a different shard can never satisfy that reference there (the
// replay proof says the old shard never admitted ro, and ro's install —
// if any — belongs to ro's object, not the dependent's). Each such
// dependent is withdrawn and parked on ro; when ro completes, dispatch
// re-translates its prev set with full knowledge. If the reference ends
// up dropped, that is sound: the two operations address DIFFERENT
// objects whose orders have diverged across shards, distinct objects are
// mutually oblivious by construction, and the park still guarantees the
// dependent is submitted only after ro's response. c.mu held.
func (c *KeyspaceClient) sweepDependentsLocked(ro *routedOp) {
	for id2, dep := range c.inflight {
		if dep.parked || dep == ro || dep.shard == ro.shard {
			continue
		}
		references := false
		for _, p := range dep.prev {
			if p == ro.id {
				references = true
				break
			}
		}
		if !references {
			continue
		}
		if !c.feLocked(dep.shard).Cancel(id2) {
			continue // a response won the race; it completes as-is
		}
		dep.parked = true
		c.waiters[ro.id] = append(c.waiters[ro.id], id2)
	}
}

// onRedirect is the front ends' Redirect callback.
func (c *KeyspaceClient) onRedirect(shard int, id ops.ID, rd Redirect) {
	if rd.Members != 0 {
		// Wrong-member refusal (shard placement, DESIGN.md §13), not a
		// resize verdict: the request reached a member that does not host
		// the shard because this process's peer table was computed from an
		// older placement. The operation stays pending — surface the newer
		// fleet size so the deployment re-points the peer table, and the
		// ordinary retransmission ticker then delivers to the right member.
		c.ks.learnMembers(rd.Members)
		return
	}
	c.mu.Lock()
	ro, ok := c.inflight[id]
	if !ok || ro.parked || ro.shard != shard {
		c.mu.Unlock()
		return // settled or already retargeted; stale verdict
	}
	if !rd.Final {
		// Migration in progress: the operation stays pending at the source
		// and the retransmission ticker keeps probing until the verdicts
		// turn Final (or a source-era acceptance answers it).
		c.mu.Unlock()
		return
	}
	c.ks.learnRedirect(ro.object, rd)
	ro.finals[rd.From] = rd
	if len(ro.finals) < c.ks.replicasPerShard() {
		// Gather the remaining replicas' verdicts now rather than at the
		// retransmission cadence.
		fe := c.feLocked(shard)
		c.mu.Unlock()
		fe.ProbeAll(id)
		return
	}
	// Every replica of the source shard disclaims the operation: replay at
	// the destination (see the type comment for why this is exactly-once).
	if !c.feLocked(shard).Cancel(id) {
		c.mu.Unlock()
		return // a real response won the race; onResponse will finish
	}
	c.ks.noteReplayed(1)
	woken := c.takeWaitersLocked(id)
	c.dispatchLocked(ro)
	c.sweepDependentsLocked(ro)
	for _, wid := range woken {
		if dep, ok := c.inflight[wid]; ok && dep.parked {
			c.dispatchLocked(dep)
		}
	}
	c.mu.Unlock()
}

// resolveMigrated is the in-process fast path the resize driver runs
// after a batch of keys finished migrating: every pending operation on a
// moved object that is NOT part of the source-era history was refused by
// every frozen replica and can be replayed immediately, without waiting
// for the redirect verdicts to trickle in. sourceEra is the driver's
// complete id set for the epoch (freeze-reported ops plus the exporters'
// key indexes — see the drainedIDs construction in Resize); operations
// in it stay put: the source owns them and answers, possibly again via
// retransmission if the first response was lost.
func (c *KeyspaceClient) resolveMigrated(moved map[string]struct{}, sourceEra map[ops.ID]struct{}) {
	c.mu.Lock()
	var replay []*routedOp
	for id, ro := range c.inflight {
		if ro.parked {
			continue // re-dispatches through its waiters with fresh routing
		}
		if _, isMoved := moved[ro.object]; !isMoved {
			continue
		}
		if _, isSourceEra := sourceEra[id]; isSourceEra {
			continue
		}
		if ro.shard == c.ks.ShardOf(ro.object) {
			continue // already targeted at the destination
		}
		replay = append(replay, ro)
	}
	for _, ro := range replay {
		if !c.feLocked(ro.shard).Cancel(ro.id) {
			continue // response in flight
		}
		c.ks.noteReplayed(1)
		woken := c.takeWaitersLocked(ro.id)
		c.dispatchLocked(ro)
		c.sweepDependentsLocked(ro)
		for _, wid := range woken {
			if dep, ok := c.inflight[wid]; ok && dep.parked {
				c.dispatchLocked(dep)
			}
		}
	}
	c.mu.Unlock()
}

// close fails every PARKED operation (they were never handed to a front
// end, so cluster shutdown cannot reach them) and all future submissions.
// Non-parked operations fail through their front ends' Close.
func (c *KeyspaceClient) close(err error) {
	if err == nil {
		err = ErrClosed
	}
	c.mu.Lock()
	if c.closed != nil {
		c.mu.Unlock()
		return
	}
	c.closed = err
	var parked []*routedOp
	for id, ro := range c.inflight {
		if ro.parked {
			parked = append(parked, ro)
			delete(c.inflight, id)
		}
	}
	c.waiters = make(map[ops.ID][]ops.ID)
	c.mu.Unlock()
	for _, ro := range parked {
		if ro.cb != nil {
			ro.cb(Response{ID: ro.id, Err: err})
		}
	}
}
