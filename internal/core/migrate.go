package core

import (
	"fmt"
	"sort"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/ring"
)

// This file is the replica side of live resharding (DESIGN.md §7): the
// freeze/drain/redirect state machine a source-shard replica runs while a
// Keyspace.Resize migrates keys away from it. The driver side is in
// resize.go; the routing side in ksclient.go.
//
// The replica's obligations, in protocol order:
//
//  1. FREEZE (FreezeKeysMsg): refuse — with an "in progress" Redirect —
//     any request for an object the new ring takes away, unless the
//     operation id is already in rcvd_r. Ids survive in rcvd_r forever
//     (pruning keeps them), so "already received" is a stable property:
//     a source-era operation keeps completing here no matter how often
//     it is retransmitted, and a new operation can NEVER join the
//     source-era history once every replica is frozen.
//  2. ACK (FreezeAckMsg): report every source-era operation on a moving
//     key not yet known stable (stable ones are already done at every
//     replica, including the driver's exporter). The driver drains until
//     each reported operation is memoized at the exporter — i.e. its
//     position and effect are final.
//  3. REDIRECT FINAL (KeyMigratedMsg / ResizeCompleteMsg): once a key's
//     install is stable at every destination replica, refusals become
//     Final. A submitter holding Final refusals from ALL replicas of the
//     shard has proof the operation was never accepted here and replays
//     it at the destination exactly once.
//
// Freeze and migration records ride the replica's durable journal
// (StableStore.PersistResize) AND travel in the Done chunk of every range
// answer (RangeResponseMsg.Resizes): a crashed replica with peers re-learns them from
// either source before it serves requests again, and a crashed
// SINGLE-replica shard — which has no peer to ask — re-learns them from
// its own journal alone. Admission parks keyed requests while recovering, so
// no operation can slip into rcvd_r at a replica that has forgotten it is
// frozen.

// replicaResize is a replica's record of one resize epoch.
type replicaResize struct {
	epoch     int
	oldShards int
	newShards int
	oldRing   ring.Ring
	newRing   ring.Ring
	complete  bool
	migrated  map[string]MigratedKey
}

// movesAway reports whether the new ring takes key away from shard.
func (rr *replicaResize) movesAway(shard int, key string) bool {
	return rr.oldRing.ShardOf(key) == shard && rr.newRing.ShardOf(key) != shard
}

// resizeFor finds or creates the record for an epoch. Mutex held.
func (r *Replica) resizeFor(epoch, oldShards, newShards int) *replicaResize {
	for _, rr := range r.resizes {
		if rr.epoch == epoch {
			return rr
		}
	}
	rr := &replicaResize{
		epoch:     epoch,
		oldShards: oldShards,
		newShards: newShards,
		oldRing:   ring.New(oldShards),
		newRing:   ring.New(newShards),
		migrated:  make(map[string]MigratedKey),
	}
	r.resizes = append(r.resizes, rr)
	return rr
}

// refuseForResize decides whether a request must be redirected instead of
// accepted (mutex held). At most one epoch can claim a key: ring growth
// only moves keys to freshly added shards, so a key leaves this shard at
// most once.
func (r *Replica) refuseForResize(x ops.Operation) (*Redirect, bool) {
	if len(r.resizes) == 0 {
		return nil, false
	}
	key, keyed := dtype.KeyOf(x.Op)
	if !keyed {
		return nil, false
	}
	if e := r.ids.get(x.ID); e != nil && e.has(recRcvd) {
		return nil, false // source-era operation: it completes here
	}
	for _, rr := range r.resizes {
		if !rr.movesAway(r.shard, key) {
			continue
		}
		rd := &Redirect{From: r.id, Epoch: rr.epoch, Shards: rr.newShards}
		if mk, ok := rr.migrated[key]; ok {
			rd.Final = true
			rd.HasInstall = mk.HasInstall
			rd.InstallID = mk.InstallID
		} else if rr.complete {
			// Every moving key with source-era history was individually
			// migrated before the epoch closed; this one provably has none.
			rd.Final = true
		}
		return rd, true
	}
	return nil, false
}

// resizeRecordLocked returns the record of a resize epoch from oldShards
// to newShards, created if new, or nil when the message naming it is
// malformed or the replica is no keyspace shard — resharding is a keyspace
// protocol, ignored on plain clusters. Mutex held.
func (r *Replica) resizeRecordLocked(epoch, oldShards, newShards int) *replicaResize {
	if oldShards < 1 || newShards <= oldShards {
		return nil
	}
	if _, keyed := r.dt.(dtype.Keyed); !keyed {
		return nil
	}
	return r.resizeFor(epoch, oldShards, newShards)
}

// handleFreezeKeys processes a FreezeKeysMsg: adopt (or refresh) the
// freeze and answer with this replica's source-era operations on moving
// keys. While a §9.3 recovery is outstanding the ack is
// withheld — rcvd_r is still being rebuilt, and an incomplete ack could
// hide a source-era operation from the drain; the driver simply retries.
func (r *Replica) handleFreezeKeys(msg FreezeKeysMsg) {
	r.step(skipCrashed, func() (o outbox) {
		if r.shard >= msg.OldShards {
			return o
		}
		rr := r.resizeRecordLocked(msg.Epoch, msg.OldShards, msg.NewShards)
		if rr == nil {
			return o
		}
		r.persistResizeLocked(rr)
		if r.recovering {
			return o
		}
		ack := FreezeAckMsg{From: r.id, Shard: r.shard, Epoch: msg.Epoch, Nonce: msg.Nonce}
		perKey := make(map[string][]ops.ID)
		for e := range r.ids.all() {
			key := r.ids.keyOf(e)
			if !e.has(recRetained) || !e.has(recKeyed) || !rr.movesAway(r.shard, key) {
				continue
			}
			if e.stableAt(r.id) {
				continue // stable ⇒ done at every replica, exporter included
			}
			perKey[key] = append(perKey[key], r.ids.id(e))
		}
		keys := make([]string, 0, len(perKey))
		for key := range perKey {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ids := perKey[key]
			sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
			ack.Keys = append(ack.Keys, FrozenKey{Key: key, IDs: ids})
		}
		// The ack promises the driver this replica refuses new operations on
		// moving keys from now on; the freeze record behind that promise must
		// outlive a crash before the promise is made.
		o.after = append(o.after, outMsg{to: msg.ReplyTo, msg: ack})
		return o
	})
}

// handleKeyMigrated records completed per-key migrations: refusals for
// these keys become Final. Records are kept forever — a retransmission
// may arrive arbitrarily late — and survive crashes via the durable
// journal and the recovery answer.
func (r *Replica) handleKeyMigrated(msg KeyMigratedMsg) {
	r.step(skipCrashed, func() (o outbox) {
		rr := r.resizeRecordLocked(msg.Epoch, msg.OldShards, msg.Shards)
		if rr == nil {
			return o
		}
		for _, mk := range msg.Keys {
			rr.migrated[mk.Key] = mk
		}
		r.persistResizeLocked(rr)
		// No reply to hold back, but committing here keeps the
		// migrated-forgotten window to one message instead of one epoch.
		o.commit = true
		return o
	})
}

// handleResizeComplete closes a resize epoch: moving keys never
// individually migrated provably had no source-era history and now get
// Final (installless) refusals. The ack lets the driver stop
// rebroadcasting.
func (r *Replica) handleResizeComplete(msg ResizeCompleteMsg) {
	r.step(skipCrashed, func() (o outbox) {
		rr := r.resizeRecordLocked(msg.Epoch, msg.OldShards, msg.Shards)
		if rr == nil {
			return o
		}
		rr.complete = true
		r.persistResizeLocked(rr)
		// Completion upgrades refusals to Final; the driver stops
		// rebroadcasting on this ack, so the record must be crash-proof first.
		o.after = append(o.after, outMsg{to: msg.ReplyTo, msg: ResizeCompleteAckMsg{From: r.id, Shard: r.shard, Epoch: msg.Epoch}})
		return o
	})
}

// renderResizeRecord renders one epoch's record in canonical (key-sorted)
// form — the same rendering recovery answers and the durable journal use,
// so journal dedup by equality works.
func renderResizeRecord(rr *replicaResize) ResizeRecord {
	rec := ResizeRecord{
		Epoch:     rr.epoch,
		OldShards: rr.oldShards,
		NewShards: rr.newShards,
		Complete:  rr.complete,
	}
	keys := make([]string, 0, len(rr.migrated))
	for key := range rr.migrated {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		rec.Migrated = append(rec.Migrated, rr.migrated[key])
	}
	return rec
}

// persistResizeLocked journals the current record of one resize epoch.
// Mutex held. Like any journal append, the record is durable only after
// the step's group commit, which the freeze and complete acks wait for
// (release), so the driver never holds an ack for an obligation a crash
// could erase.
func (r *Replica) persistResizeLocked(rr *replicaResize) {
	if r.store == nil {
		return
	}
	if err := r.store.PersistResize(renderResizeRecord(rr)); err != nil {
		r.fault(FaultStoreFailed, ops.ID{}, "persisting resize epoch %d: %v", rr.epoch, err)
		r.storeFailed = true
	}
}

// resizeRecordsLocked renders the replica's resize history for a range
// answer's Done chunk. Mutex held.
func (r *Replica) resizeRecordsLocked() []ResizeRecord {
	if len(r.resizes) == 0 {
		return nil
	}
	out := make([]ResizeRecord, 0, len(r.resizes))
	for _, rr := range r.resizes {
		out = append(out, renderResizeRecord(rr))
	}
	return out
}

// installResizeRecords merges range-answer (or store-reloaded) resize
// history. Mutex held.
func (r *Replica) installResizeRecords(recs []ResizeRecord) {
	for _, rec := range recs {
		if rec.OldShards < 1 || rec.NewShards <= rec.OldShards {
			continue // malformed: ignore, like any hostile gossip field
		}
		rr := r.resizeFor(rec.Epoch, rec.OldShards, rec.NewShards)
		rr.complete = rr.complete || rec.Complete
		for _, mk := range rec.Migrated {
			rr.migrated[mk.Key] = mk
		}
		// Gossip-learned records are journaled too (dedup makes replaying
		// the store's own records back through here a no-op); they become
		// durable with the next group commit.
		r.persistResizeLocked(rr)
	}
}

// MovingStateKeys lists the keys in this replica's solid keyed state that
// oldR owns at this shard and newR takes away — the exporter-side half of
// the migration key enumeration (freeze acks contribute the keys whose
// history is still in flight).
func (r *Replica) MovingStateKeys(oldR, newR ring.Ring) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.memoState.(dtype.KeyedState)
	if !ok {
		return nil
	}
	var out []string
	for key := range st.All() {
		if oldR.ShardOf(key) == r.shard && newR.ShardOf(key) != r.shard {
			out = append(out, key)
		}
	}
	return out
}

// ErrNotDrained is the retryable condition ExportKeyState reports while a
// key's source-era history has not yet fully settled into the memoized
// solid prefix.
type ErrNotDrained struct{ Reason string }

func (e *ErrNotDrained) Error() string { return "core: key not drained: " + e.Reason }

// ExportKeyState exports the canonical inner-state encoding of key once
// its source-era history has drained: every operation in drain (the union
// of freeze-ack reports) is memoized, and no operation on the key remains
// outside the solid prefix. The returned state is final — solid-prefix
// positions never change (Lemma 10.2) — so it is exactly what the
// destination's KeyInstall must contain, and subsumes is the key's full
// source-era identifier history (from the prune-surviving key index), so
// destinations can satisfy prev constraints on pruned source-era
// operations. hasState is false when the key has no state here (it moved
// with no history; no install is needed).
func (r *Replica) ExportKeyState(key string, drain []ops.ID) (enc []byte, subsumes []dtype.OpRef, hasState bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kd, ok := r.dt.(dtype.Keyed)
	if !ok {
		return nil, nil, false, fmt.Errorf("core: ExportKeyState on non-keyed data type %s", r.dt.Name())
	}
	sn, ok := kd.Inner.(dtype.Snapshotter)
	if !ok {
		return nil, nil, false, fmt.Errorf("core: inner type %s has no snapshot encoding", kd.Inner.Name())
	}
	if !r.opt.Memoize {
		return nil, nil, false, fmt.Errorf("core: ExportKeyState requires Options.Memoize")
	}
	if r.crashed || r.recovering {
		return nil, nil, false, &ErrNotDrained{Reason: "exporter is crashed or recovering"}
	}
	for _, id := range drain {
		if e := r.ids.get(id); e == nil || !e.has(recMemo) {
			return nil, nil, false, &ErrNotDrained{Reason: fmt.Sprintf("op %v not yet solid", id)}
		}
	}
	// Nothing on the key may remain outside the solid prefix: an unsolid
	// done op could still re-order, and a received-undone op has not even
	// executed. (All such ops are drain-reported by some replica, but the
	// exporter may additionally know ops the acks predate.)
	touchesKey := func(e *idRec) bool {
		// A pruned op is stable, hence memoized.
		return e.has(recRetained) && e.has(recKeyed) && r.ids.keyOf(e) == key
	}
	for _, h := range r.doneSeq[r.memoized:] {
		if e := r.ids.at(h); touchesKey(e) {
			return nil, nil, false, &ErrNotDrained{Reason: fmt.Sprintf("done op %v not yet solid", r.ids.id(e))}
		}
	}
	for _, e := range r.rcvdQueue {
		if touchesKey(e) {
			return nil, nil, false, &ErrNotDrained{Reason: fmt.Sprintf("received op %v not yet done", r.ids.id(e))}
		}
	}
	st, ok := r.memoState.(dtype.KeyedState)
	if !ok {
		return nil, nil, false, fmt.Errorf("core: keyed replica holds %T state", r.memoState)
	}
	// The key's full source-era identifier history, from the
	// prune-surviving index; drain ids are a subset (they were received —
	// via request or gossip — to become solid here).
	for e := range r.ids.all() {
		if e.has(recKeyed) && r.ids.keyOf(e) == key {
			id := r.ids.id(e)
			subsumes = append(subsumes, dtype.OpRef{Client: id.Client, Seq: id.Seq})
		}
	}
	sort.Slice(subsumes, func(i, j int) bool {
		if subsumes[i].Client != subsumes[j].Client {
			return subsumes[i].Client < subsumes[j].Client
		}
		return subsumes[i].Seq < subsumes[j].Seq
	})
	inner, ok := st.Get(key)
	if !ok {
		return nil, subsumes, false, nil // drained, no state: migrate without install
	}
	enc, eerr := sn.EncodeState(inner)
	if eerr != nil {
		return nil, nil, false, fmt.Errorf("core: encoding state of %q: %w", key, eerr)
	}
	return enc, subsumes, true, nil
}
