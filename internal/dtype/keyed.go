package dtype

import (
	"fmt"
	"iter"
)

// Keyed lifts an inner serial data type to a keyspace of independent named
// objects: the state is a map from object name to an inner state, every
// operator addresses one object (KeyedOp), and the reportable value is the
// inner operator's value unchanged. A Keyed object is still ONE serial
// data type — all objects bound to it share a single eventual total order —
// which is exactly what a keyspace shard replicates: many small objects,
// one ESDS cluster. Operations on distinct objects are independent (they
// commute and are mutually oblivious), so nothing is lost by sharing the
// order.
type Keyed struct {
	Inner DataType
}

var (
	_ DataType         = Keyed{}
	_ Commuter         = Keyed{}
	_ ObliviousChecker = Keyed{}
)

// NewKeyed returns the keyed lift of inner.
func NewKeyed(inner DataType) Keyed {
	if inner == nil {
		panic("dtype: nil inner data type")
	}
	if _, nested := inner.(Keyed); nested {
		panic("dtype: nested keyed data type")
	}
	return Keyed{Inner: inner}
}

// KeyedOp applies Op of the inner data type to the object named Key.
// Objects spring into existence at the inner type's initial state on first
// use.
type KeyedOp struct {
	Key string
	Op  Operator
}

func (o KeyedOp) String() string { return fmt.Sprintf("%s/%v", o.Key, o.Op) }

// KeyedState is the state of a Keyed object: object name → inner state,
// held in the package's persistent map (pmap), so a write copies the
// O(log₃₂ n) trie nodes on one object's path however many objects the map
// holds, and every earlier version stays intact — a replica keeps one per
// memoized or cached position. An operator that changes an object's state,
// or names an object for the first time (which brings it into existence),
// returns such a new map; a read-only inner operator (dtype.ReadOnly) on an
// existing object returns its input itself. The zero value is the empty
// map.
//
// A KeyedState prints exactly as fmt prints a map[string]State with the
// same contents: the spec sweeps compare printed states.
type KeyedState struct {
	objects pmap[State]
}

// Len returns the number of objects.
func (s KeyedState) Len() int { return s.objects.Len() }

// Get returns the named object's state and whether the object exists.
func (s KeyedState) Get(key string) (State, bool) { return s.objects.Get(key) }

// With returns the map with key bound to state. s itself is unchanged.
func (s KeyedState) With(key string, state State) KeyedState {
	return KeyedState{objects: s.objects.With(key, state)}
}

// All iterates over the objects in ascending key order: the order of the
// canonical encoding, and the order fmt prints a map's keys in.
func (s KeyedState) All() iter.Seq2[string, State] { return s.objects.All() }

// String prints the map as fmt prints the map[string]State it holds.
func (s KeyedState) String() string {
	m := make(map[string]State, s.Len())
	for key, st := range s.All() {
		m[key] = st
	}
	return fmt.Sprint(m)
}

// KeyInstall replaces the named object's state with a decoded canonical
// encoding (the inner type's dtype.Snapshotter form). It is the migration
// payload of live resharding: the source shard drains the object, exports
// its solid state, and the resize driver submits a KeyInstall through the
// DESTINATION shard's ordinary operation pipeline — so the install is
// labeled, gossiped, memoized, snapshotted, and recovered exactly like any
// other operation, and every later operation on the object is ordered
// after it by the algorithm itself (no parallel install path to keep
// consistent). Decoding failures are deterministic no-ops whose reportable
// value carries the error: a hostile or corrupt install must not crash a
// replica, and all replicas must agree on the (non-)effect.
type KeyInstall struct {
	Key   string
	State []byte
	// Subsumes lists the operations whose effects State already contains —
	// the object's entire source-era history. A replica that has applied
	// the install treats these identifiers as satisfied prev constraints:
	// a client may legitimately constrain a new operation on a migrated
	// object after ANY operation it ever saw answered, including ones
	// whose descriptors §10.2 pruning has long discarded at the source.
	// (OpRef mirrors ops.ID; the ops package depends on this one, so the
	// identifier pair is restated here.)
	Subsumes []OpRef
}

// OpRef names an operation (client, sequence) without importing the ops
// package. See KeyInstall.Subsumes.
type OpRef struct {
	Client string
	Seq    uint64
}

func (o KeyInstall) String() string { return fmt.Sprintf("%s/install[%d bytes]", o.Key, len(o.State)) }

// KeyInstalled is the reportable value of a successful KeyInstall.
const KeyInstalled = "installed"

// Name implements DataType.
func (k Keyed) Name() string { return "keyed:" + k.Inner.Name() }

// Initial implements DataType: an empty keyspace.
func (k Keyed) Initial() State { return KeyedState{} }

// Apply implements DataType: it applies the inner operator to the named
// object's state and reports the inner value.
func (k Keyed) Apply(s State, op Operator) (State, Value) {
	cur, ok := s.(KeyedState)
	if !ok {
		panic(fmt.Sprintf("dtype: keyed state has type %T, want KeyedState", s))
	}
	var key string
	var next State
	var v Value
	switch o := op.(type) {
	case KeyedOp:
		key = o.Key
		inner, ok := cur.Get(key)
		if !ok {
			inner = k.Inner.Initial()
		}
		next, v = k.Inner.Apply(inner, o.Op)
		if ok && ReadOnly(k.Inner, o.Op) {
			return cur, v
		}
	case KeyInstall:
		key = o.Key
		sn, ok := k.Inner.(Snapshotter)
		if !ok {
			return cur, fmt.Sprintf("install failed: inner type %s has no snapshot encoding", k.Inner.Name())
		}
		decoded, err := sn.DecodeState(o.State)
		if err != nil {
			return cur, fmt.Sprintf("install failed: %v", err)
		}
		next, v = decoded, Value(KeyInstalled)
	default:
		panic(fmt.Sprintf("dtype: keyed data type does not support operator %T", op))
	}
	return cur.With(key, next), v
}

// KeyOf extracts the object name an operator addresses: the Key of a
// KeyedOp or KeyInstall. It reports false for operators of non-keyed
// types — the predicate routing layers (hash ring, migration freeze)
// dispatch on.
func KeyOf(op Operator) (string, bool) {
	switch o := op.(type) {
	case KeyedOp:
		return o.Key, true
	case KeyInstall:
		return o.Key, true
	}
	return "", false
}

// Commute implements Commuter: operators on distinct objects always
// commute; operators on the same object commute iff the inner type says
// so (false when it cannot tell — the conservative answer). A KeyInstall
// never commutes with a same-object operator: it replaces the whole
// object state, so order against every other touch of the object matters.
func (k Keyed) Commute(op1, op2 Operator) bool {
	k1, ok1 := KeyOf(op1)
	k2, ok2 := KeyOf(op2)
	if !ok1 || !ok2 {
		return false
	}
	if k1 != k2 {
		return true
	}
	o1, isOp1 := op1.(KeyedOp)
	o2, isOp2 := op2.(KeyedOp)
	if !isOp1 || !isOp2 {
		return false // at least one install: order always matters
	}
	if c, ok := k.Inner.(Commuter); ok {
		return c.Commute(o1.Op, o2.Op)
	}
	return false
}

// Oblivious implements ObliviousChecker: an operator's value cannot depend
// on operators addressing other objects; same-object pairs delegate to the
// inner type (and installs are never oblivious to same-object operators —
// an install's meaning is exactly the state it replaces).
func (k Keyed) Oblivious(op1, op2 Operator) bool {
	k1, ok1 := KeyOf(op1)
	k2, ok2 := KeyOf(op2)
	if !ok1 || !ok2 {
		return false
	}
	if k1 != k2 {
		return true
	}
	o1, isOp1 := op1.(KeyedOp)
	o2, isOp2 := op2.(KeyedOp)
	if !isOp1 || !isOp2 {
		return false
	}
	if c, ok := k.Inner.(ObliviousChecker); ok {
		return c.Oblivious(o1.Op, o2.Op)
	}
	return false
}
