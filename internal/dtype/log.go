package dtype

import (
	"fmt"
	"slices"
	"strings"
)

// Log is an append-only log of string entries. Appends of different entries
// do not commute (order matters), making Log a worst case for the §10.3
// commutativity optimization and a good stress test for eventual
// serialization: all replicas must converge on the same entry order.
type Log struct{}

var (
	_ DataType         = Log{}
	_ Commuter         = Log{}
	_ ObliviousChecker = Log{}
	_ ReadOnlyChecker  = Log{}
)

// LogAppend appends Entry; its reportable value is the new length.
type LogAppend struct{ Entry string }

// LogRead returns the full log contents (value: string, entries joined
// by "|").
type LogRead struct{}

// LogLen returns the number of entries (value: int).
type LogLen struct{}

func (o LogAppend) String() string { return fmt.Sprintf("append(%s)", o.Entry) }
func (LogRead) String() string     { return "read" }
func (LogLen) String() string      { return "len" }

// LogState is the immutable state of a Log: its entries in order. An
// append copies them into a new, exactly sized slice, so no later append
// can write into an array another state holds.
type LogState struct{ entries []string }

func (s LogState) String() string { return "log[" + strings.Join(s.entries, "|") + "]" }

// Name implements DataType.
func (Log) Name() string { return "log" }

// Initial implements DataType.
func (Log) Initial() State { return LogState{} }

// Apply implements DataType. A query returns s itself, so it does not
// re-box the state.
func (Log) Apply(s State, op Operator) (State, Value) {
	cur, ok := s.(LogState)
	if !ok {
		panic(fmt.Sprintf("dtype: log state has type %T, want LogState", s))
	}
	switch o := op.(type) {
	case LogAppend:
		next := LogState{slices.Concat(cur.entries, []string{o.Entry})}
		return next, len(next.entries)
	case LogRead:
		return s, strings.Join(cur.entries, "|")
	case LogLen:
		return s, len(cur.entries)
	default:
		panic(fmt.Sprintf("dtype: log does not support operator %T", op))
	}
}

// ReadOnly implements ReadOnlyChecker: reads and length queries never
// change the log.
func (Log) ReadOnly(op Operator) bool {
	switch op.(type) {
	case LogRead, LogLen:
		return true
	}
	return false
}

// Commute implements Commuter: appends never commute with each other
// (entry order is observable); queries commute with queries.
func (Log) Commute(op1, op2 Operator) bool {
	_, a1 := op1.(LogAppend)
	_, a2 := op2.(LogAppend)
	return !(a1 && a2)
}

// Oblivious implements ObliviousChecker: every operator's value observes
// appends (even LogAppend reports the length), so nothing is oblivious to
// an append; everything is oblivious to queries.
func (Log) Oblivious(op1, op2 Operator) bool {
	_, a2 := op2.(LogAppend)
	return !a2
}
