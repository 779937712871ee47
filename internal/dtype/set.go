package dtype

import (
	"fmt"
	"strings"
)

// Set is an add/remove set of string elements with membership and size
// queries.
type Set struct{}

var (
	_ DataType         = Set{}
	_ Commuter         = Set{}
	_ ObliviousChecker = Set{}
	_ ReadOnlyChecker  = Set{}
)

// SetAdd inserts Elem; its reportable value is "ok".
type SetAdd struct{ Elem string }

// SetRemove deletes Elem; its reportable value is "ok".
type SetRemove struct{ Elem string }

// SetContains reports whether Elem is a member (value: bool).
type SetContains struct{ Elem string }

// SetSize reports the number of members (value: int).
type SetSize struct{}

func (o SetAdd) String() string      { return fmt.Sprintf("add(%s)", o.Elem) }
func (o SetRemove) String() string   { return fmt.Sprintf("remove(%s)", o.Elem) }
func (o SetContains) String() string { return fmt.Sprintf("contains(%s)", o.Elem) }
func (SetSize) String() string       { return "size" }

// SetState is the immutable state of a Set: its members, held in the
// package's persistent map (pmap), so a write copies one trie path and
// any string is a member like any other.
type SetState struct {
	members pmap[struct{}]
}

func (s SetState) String() string {
	var b strings.Builder
	for m := range s.members.All() {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(m)
	}
	return "{" + b.String() + "}"
}

// Name implements DataType.
func (Set) Name() string { return "set" }

// Initial implements DataType.
func (Set) Initial() State { return SetState{} }

// Apply implements DataType. Whenever the state does not change it returns
// s itself, so a read does not re-box the state.
func (Set) Apply(s State, op Operator) (State, Value) {
	cur, ok := s.(SetState)
	if !ok {
		panic(fmt.Sprintf("dtype: set state has type %T, want SetState", s))
	}
	switch o := op.(type) {
	case SetAdd:
		if _, ok := cur.members.Get(o.Elem); ok {
			return s, "ok"
		}
		return SetState{cur.members.With(o.Elem, struct{}{})}, "ok"
	case SetRemove:
		if _, ok := cur.members.Get(o.Elem); !ok {
			return s, "ok"
		}
		return SetState{cur.members.Without(o.Elem)}, "ok"
	case SetContains:
		_, ok := cur.members.Get(o.Elem)
		return s, ok
	case SetSize:
		return s, cur.members.Len()
	default:
		panic(fmt.Sprintf("dtype: set does not support operator %T", op))
	}
}

// ReadOnly implements ReadOnlyChecker: membership and size queries never
// change the set.
func (Set) ReadOnly(op Operator) bool {
	switch op.(type) {
	case SetContains, SetSize:
		return true
	}
	return false
}

// Commute implements Commuter: mutators on different elements commute;
// add and remove of the same element do not; queries always commute.
func (Set) Commute(op1, op2 Operator) bool {
	e1, mut1 := setMutTarget(op1)
	e2, mut2 := setMutTarget(op2)
	if !mut1 || !mut2 {
		return true
	}
	if e1 != e2 {
		return true
	}
	// Same element: add/add and remove/remove are idempotent and commute;
	// add/remove do not.
	_, a1 := op1.(SetAdd)
	_, a2 := op2.(SetAdd)
	return a1 == a2
}

// Oblivious implements ObliviousChecker: a query is not oblivious to a
// mutator of the element it observes (SetSize observes all elements).
func (Set) Oblivious(op1, op2 Operator) bool {
	e2, mut2 := setMutTarget(op2)
	if !mut2 {
		return true // op2 is a query: cannot affect op1's value
	}
	switch q := op1.(type) {
	case SetContains:
		return q.Elem != e2
	case SetSize:
		return false
	default:
		return true // mutators report "ok" regardless
	}
}

func setMutTarget(op Operator) (elem string, isMutator bool) {
	switch o := op.(type) {
	case SetAdd:
		return o.Elem, true
	case SetRemove:
		return o.Elem, true
	default:
		return "", false
	}
}
