package spec

import (
	"fmt"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/ring"
)

// CheckResizeEquivalence is the checkable soundness obligation behind live
// resharding (DESIGN.md §7): cutting a history across a resize must be
// indistinguishable from never sharding at all.
//
// Concretely, for a keyed history seq (operations on named objects,
// already in its eventual serial order) and a resize from oldShards to
// newShards at position cut, the sharded-and-migrated execution is:
//
//  1. Pre-cut operations run on the shard the OLD ring routes their
//     object to (each shard holds an independent keyed state — per-object
//     sub-histories are what a shard actually serializes).
//  2. At the cut, every object the ring diff reassigns is migrated the
//     way Keyspace.Resize migrates it: its inner state is encoded with
//     the data type's canonical form, carried to the destination, and
//     installed by applying a dtype.KeyInstall through the destination's
//     OWN state — exactly the replica-side code path.
//  3. Post-cut operations run on the shard the NEW ring routes their
//     object to.
//
// The check compares, against one uninterrupted unsharded replay: the
// value of every operation (pre- and post-cut), and the final state of
// every object (read from whichever shard owns it after the resize).
// Any divergence — a lossy encoding, a non-canonical decode, an install
// that clobbers or fabricates state, a routing disagreement — is
// reported with the first operation or object it corrupts.
func CheckResizeEquivalence(inner dtype.DataType, seq []ops.Operation, cut, oldShards, newShards int) error {
	if cut < 0 || cut > len(seq) {
		return fmt.Errorf("spec: resize cut %d out of range [0, %d]", cut, len(seq))
	}
	if oldShards < 1 || newShards < oldShards {
		return fmt.Errorf("spec: invalid resize %d → %d shards", oldShards, newShards)
	}
	sn, ok := inner.(dtype.Snapshotter)
	if !ok {
		return fmt.Errorf("spec: data type %s has no snapshot encoding", inner.Name())
	}
	keyed := dtype.NewKeyed(inner)

	// Ground truth: one unsharded replay of the whole history.
	truthState := keyed.Initial()
	truthVals := make([]dtype.Value, len(seq))
	for i, x := range seq {
		if _, isKeyed := x.Op.(dtype.KeyedOp); !isKeyed {
			return fmt.Errorf("spec: resize histories must consist of dtype.KeyedOp, got %T at %d", x.Op, i)
		}
		truthState, truthVals[i] = keyed.Apply(truthState, x.Op)
	}

	oldRing, newRing := ring.New(oldShards), ring.New(newShards)

	// Sharded execution. Each shard's state is an independent keyed state,
	// as in core.Keyspace (one cluster per shard over dtype.Keyed).
	shardStates := make([]dtype.State, newShards)
	for s := range shardStates {
		shardStates[s] = keyed.Initial()
	}
	for i := 0; i < cut; i++ {
		x := seq[i]
		key := x.Op.(dtype.KeyedOp).Key
		s := oldRing.ShardOf(key)
		var v dtype.Value
		shardStates[s], v = keyed.Apply(shardStates[s], x.Op)
		if fmt.Sprint(v) != fmt.Sprint(truthVals[i]) {
			return fmt.Errorf("spec: pre-cut value of %v (op %d, shard %d) = %v, unsharded replay says %v",
				x.ID, i, s, v, truthVals[i])
		}
	}

	// The migration: every object with state whose owner changes is
	// exported (canonical encoding), installed at the destination via the
	// KeyInstall operator, and retired at the source.
	for src := 0; src < oldShards; src++ {
		st := shardStates[src].(dtype.KeyedState)
		for key, innerState := range st.All() {
			if oldRing.ShardOf(key) != src {
				continue // an object another shard owns cannot sit here
			}
			dst := newRing.ShardOf(key)
			if dst == src {
				continue
			}
			enc, err := sn.EncodeState(innerState)
			if err != nil {
				return fmt.Errorf("spec: exporting %q at cut %d: %w", key, cut, err)
			}
			var v dtype.Value
			shardStates[dst], v = keyed.Apply(shardStates[dst], dtype.KeyInstall{Key: key, State: enc})
			if v != dtype.Value(dtype.KeyInstalled) {
				return fmt.Errorf("spec: installing %q at shard %d: %v", key, dst, v)
			}
			// Retire the source copy the way a real source does: it stops
			// serving the key (here: drop it so a routing bug would read a
			// missing object, not a stale one).
			var pruned dtype.KeyedState
			for k2, s2 := range shardStates[src].(dtype.KeyedState).All() {
				if k2 != key {
					pruned = pruned.With(k2, s2)
				}
			}
			shardStates[src] = pruned
		}
	}

	// Post-cut operations route by the new ring.
	for i := cut; i < len(seq); i++ {
		x := seq[i]
		key := x.Op.(dtype.KeyedOp).Key
		s := newRing.ShardOf(key)
		var v dtype.Value
		shardStates[s], v = keyed.Apply(shardStates[s], x.Op)
		if fmt.Sprint(v) != fmt.Sprint(truthVals[i]) {
			return fmt.Errorf("spec: post-cut value of %v (op %d, shard %d) = %v, unsharded replay says %v",
				x.ID, i, s, v, truthVals[i])
		}
	}

	// Final states must agree object by object, each read from the shard
	// that owns it after the resize, and no shard may hold an object it
	// does not own (a leaked or resurrected copy).
	for key, want := range truthState.(dtype.KeyedState).All() {
		owner := newRing.ShardOf(key)
		got, ok := shardStates[owner].(dtype.KeyedState).Get(key)
		if !ok {
			return fmt.Errorf("spec: object %q missing from its post-resize owner %d", key, owner)
		}
		// Compare through the canonical encoding: states may differ in
		// representation but must not differ in canonical form.
		wantEnc, err := sn.EncodeState(want)
		if err != nil {
			return fmt.Errorf("spec: encoding truth state of %q: %w", key, err)
		}
		gotEnc, err := sn.EncodeState(got)
		if err != nil {
			return fmt.Errorf("spec: encoding migrated state of %q: %w", key, err)
		}
		if string(wantEnc) != string(gotEnc) {
			return fmt.Errorf("spec: final state of %q diverges after resize at cut %d:\n  sharded:   %v\n  unsharded: %v",
				key, cut, got, want)
		}
	}
	for s, raw := range shardStates {
		for key := range raw.(dtype.KeyedState).All() {
			if newRing.ShardOf(key) != s && oldRing.ShardOf(key) != s {
				return fmt.Errorf("spec: shard %d holds object %q it never owned", s, key)
			}
		}
	}
	return nil
}
