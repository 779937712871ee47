// Package dtype implements serial data types in the sense of §2.2 of
// Fekete et al.: a set of object states Σ with a distinguished initial state,
// a set of operators O, a set of reportable values V, and a transition
// function τ : Σ × O → Σ × V.
//
// The ESDS service makes no assumption about object semantics, so states,
// operators, and values are dynamically typed (any). Concrete data types
// (register, counter, set, directory, log, bank) provide typed operator
// constructors. Data types may additionally implement Commuter and
// ObliviousChecker to expose the commutativity/independence structure used
// by the §10.3 optimization, and ReadOnlyChecker to name their queries.
package dtype

import (
	"bytes"
	"fmt"
)

// State is an object state σ ∈ Σ. States must be treated as immutable:
// Apply must return a fresh state rather than mutating its argument, so a
// replica can keep snapshots (memoized prefix states) safely.
type State = any

// Operator is a data type operator op ∈ O.
type Operator = any

// Value is a reportable value v ∈ V.
type Value = any

// DataType is a serial data type (Σ, σ₀, V, O, τ).
type DataType interface {
	// Name identifies the data type (for diagnostics and table output).
	Name() string
	// Initial returns the initial state σ₀.
	Initial() State
	// Apply is the transition function τ: it returns the post-state
	// τ(σ, op).s and the reportable value τ(σ, op).v. Apply must not mutate σ.
	Apply(s State, op Operator) (State, Value)
}

// Commuter is an optional extension: data types that can decide whether two
// operators commute (§10.3): op₁ and op₂ commute iff
// τ⁺(σ,(op₁,op₂)).s = τ⁺(σ,(op₂,op₁)).s for all σ.
type Commuter interface {
	Commute(op1, op2 Operator) bool
}

// ObliviousChecker is an optional extension: Oblivious(op1, op2) reports
// whether op₁ is oblivious to op₂ (§10.3): τ⁺(σ,(op₂,op₁)).v = τ(σ,op₁).v
// for all σ, i.e. op₁'s return value is unaffected by op₂ preceding it.
type ObliviousChecker interface {
	Oblivious(op1, op2 Operator) bool
}

// ReadOnlyChecker is an optional extension: ReadOnly(op) reports that op is
// a pure query — τ(σ, op).s = σ for all σ — so a caller may keep the input
// state instead of whatever Apply returns (Keyed does, to share its object
// map across reads). A false answer is always safe.
type ReadOnlyChecker interface {
	ReadOnly(op Operator) bool
}

// ReadOnly reports whether dt declares op a pure query (ReadOnlyChecker);
// false when dt cannot tell.
func ReadOnly(dt DataType, op Operator) bool {
	c, ok := dt.(ReadOnlyChecker)
	return ok && c.ReadOnly(op)
}

// ApplyAll is τ⁺ (§2.2): it applies ops in sequence from s and returns the
// final state. ApplyAll of an empty sequence returns s.
func ApplyAll(dt DataType, s State, ops []Operator) State {
	for _, op := range ops {
		s, _ = dt.Apply(s, op)
	}
	return s
}

// ApplyAllValues applies ops in sequence from s, returning the final state
// and the value produced by each operator.
func ApplyAllValues(dt DataType, s State, ops []Operator) (State, []Value) {
	vals := make([]Value, 0, len(ops))
	for _, op := range ops {
		var v Value
		s, v = dt.Apply(s, op)
		vals = append(vals, v)
	}
	return s, vals
}

// Independent reports whether op1 and op2 are independent (§10.3): they
// commute and each is oblivious to the other. dt must implement both
// Commuter and ObliviousChecker; otherwise Independent returns false
// (the conservative answer: dependence forces ordering, never breaks
// correctness).
func Independent(dt DataType, op1, op2 Operator) bool {
	c, ok := dt.(Commuter)
	if !ok {
		return false
	}
	o, ok := dt.(ObliviousChecker)
	if !ok {
		return false
	}
	return c.Commute(op1, op2) && o.Oblivious(op1, op2) && o.Oblivious(op2, op1)
}

// CheckCommute verifies by direct application that op1 and op2 commute on
// every state in states. It is a test oracle for Commuter implementations.
func CheckCommute(dt DataType, op1, op2 Operator, states []State) bool {
	for _, s := range states {
		a := ApplyAll(dt, s, []Operator{op1, op2})
		b := ApplyAll(dt, s, []Operator{op2, op1})
		if !stateEqual(dt, a, b) {
			return false
		}
	}
	return true
}

// CheckOblivious verifies by direct application that op1 is oblivious to
// op2 on every state in states.
func CheckOblivious(dt DataType, op1, op2 Operator, states []State) bool {
	for _, s := range states {
		_, direct := dt.Apply(s, op1)
		mid, _ := dt.Apply(s, op2)
		_, after := dt.Apply(mid, op1)
		if fmt.Sprint(direct) != fmt.Sprint(after) {
			return false
		}
	}
	return true
}

// stateEqual compares two states of dt by their canonical encodings when
// dt has one (Snapshotter), and by their printed forms otherwise. A printed
// form need not tell states apart: the sets {"a,b"} and {"a", "b"} both
// print {a,b}.
func stateEqual(dt DataType, a, b State) bool {
	if sn, ok := dt.(Snapshotter); ok {
		ea, errA := sn.EncodeState(a)
		eb, errB := sn.EncodeState(b)
		if errA == nil && errB == nil {
			return bytes.Equal(ea, eb)
		}
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}
