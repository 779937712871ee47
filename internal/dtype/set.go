package dtype

import (
	"fmt"
	"sort"
	"strings"
)

// Set is an add/remove set of string elements with membership and size
// queries. Its state is an immutable sorted membership snapshot.
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

// SetState is the canonical state of a Set: a sorted list of members.
// It is treated as immutable.
type SetState struct {
	members string // "\x00"-joined sorted members; canonical and comparable
}

// Members returns the member list.
func (s SetState) Members() []string {
	if s.members == "" {
		return nil
	}
	return strings.Split(s.members, "\x00")
}

// Has reports membership. It scans the encoding in place.
func (s SetState) Has(elem string) bool {
	if s.members == "" {
		return false
	}
	rest := s.members
	for {
		m, tail, more := strings.Cut(rest, "\x00")
		if m == elem {
			return true
		}
		if !more {
			return false
		}
		rest = tail
	}
}

// size returns the number of members.
func (s SetState) size() int {
	if s.members == "" {
		return 0
	}
	return strings.Count(s.members, "\x00") + 1
}

func (s SetState) String() string { return "{" + strings.ReplaceAll(s.members, "\x00", ",") + "}" }

func setStateOf(members []string) SetState {
	sort.Strings(members)
	return SetState{members: strings.Join(members, "\x00")}
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
		if cur.Has(o.Elem) {
			return s, "ok"
		}
		return setStateOf(append(cur.Members(), o.Elem)), "ok"
	case SetRemove:
		if !cur.Has(o.Elem) {
			return s, "ok"
		}
		ms := cur.Members()
		out := make([]string, 0, len(ms)-1)
		for _, m := range ms {
			if m != o.Elem {
				out = append(out, m)
			}
		}
		return setStateOf(out), "ok"
	case SetContains:
		return s, cur.Has(o.Elem)
	case SetSize:
		return s, cur.size()
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
