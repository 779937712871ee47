// Package ops implements operation descriptors and the value semantics of
// §2.3 of Fekete et al.: operation identifiers, prev sets, the
// client-specified-constraints relation CSC, and the outcome / val / valset
// functions that define which responses are legal for a set of operations
// under a partial order.
package ops

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"esds/internal/dtype"
	"esds/internal/order"
)

// ID is a globally unique operation identifier 𝓘. Following §6.2, the
// issuing client is encoded in the identifier (the static function
// client(x.id) is the Client field).
type ID struct {
	Client string
	Seq    uint64
}

// String renders the id as "client:seq".
func (id ID) String() string { return id.Client + ":" + strconv.FormatUint(id.Seq, 10) }

// Less is a deterministic strict total order on IDs (used only as a
// tie-break in checkers and table output, never for consistency).
func (id ID) Less(other ID) bool {
	if id.Client != other.Client {
		return id.Client < other.Client
	}
	return id.Seq < other.Seq
}

// Operation is an operation descriptor (§2.3): a data type operator, a
// unique identifier, a prev set of identifiers that must precede it, and a
// strict flag. Operations are immutable once created; Prev is stored sorted.
type Operation struct {
	Op     dtype.Operator
	ID     ID
	Prev   []ID // sorted by ID.Less, no duplicates
	Strict bool
}

// New constructs an operation descriptor, normalizing the prev set
// (sorting, deduplicating, and dropping self-references). It runs for
// every submission and every descriptor a gossip frame decodes, so the
// common prev sets of zero or one id take no sort.
func New(op dtype.Operator, id ID, prev []ID, strict bool) Operation {
	cp := make([]ID, 0, len(prev))
	for _, p := range prev {
		if p != id {
			cp = append(cp, p)
		}
	}
	if len(cp) > 1 {
		slices.SortFunc(cp, compareIDs)
		cp = slices.Compact(cp)
	}
	return Operation{Op: op, ID: id, Prev: cp, Strict: strict}
}

// compareIDs orders ids as ID.Less does.
func compareIDs(a, b ID) int {
	if c := strings.Compare(a.Client, b.Client); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// String renders the descriptor for diagnostics.
func (x Operation) String() string {
	var b strings.Builder
	b.WriteString(x.ID.String())
	b.WriteByte('=')
	b.WriteString(fmt.Sprint(x.Op))
	if x.Strict {
		b.WriteString("!")
	}
	if len(x.Prev) > 0 {
		parts := make([]string, len(x.Prev))
		for i, p := range x.Prev {
			parts[i] = p.String()
		}
		b.WriteString("{prev:" + strings.Join(parts, ",") + "}")
	}
	return b.String()
}

// HasPrev reports whether id is in the operation's prev set.
func (x Operation) HasPrev(id ID) bool {
	i := sort.Search(len(x.Prev), func(i int) bool { return !x.Prev[i].Less(id) })
	return i < len(x.Prev) && x.Prev[i] == id
}

// IDs returns the identifier set of a slice of operations (the paper's X.id).
func IDs(xs []Operation) map[ID]struct{} {
	s := make(map[ID]struct{}, len(xs))
	for _, x := range xs {
		s[x.ID] = struct{}{}
	}
	return s
}

// CSC builds the client-specified-constraints relation on identifiers
// (§2.3): CSC(X) = { (y.id, x.id) : x ∈ X ∧ y.id ∈ x.prev }.
func CSC(xs []Operation) *order.Relation[ID] {
	r := order.NewRelation[ID]()
	for _, x := range xs {
		for _, p := range x.Prev {
			r.Add(p, x.ID)
		}
	}
	return r
}

// Outcome is outcome_σ(X, ≺) (§2.3): the state after applying the
// operations of seq in order, starting from σ.
func Outcome(dt dtype.DataType, sigma dtype.State, seq []Operation) dtype.State {
	for _, x := range seq {
		sigma, _ = dt.Apply(sigma, x.Op)
	}
	return sigma
}

// Val is val_σ(x, X, ≺) for a totally ordered X given as seq: the value
// returned to x when the operations are applied in that order from σ.
// It panics if x is not in seq (a val for an absent operation is undefined).
func Val(dt dtype.DataType, sigma dtype.State, x Operation, seq []Operation) dtype.Value {
	for _, y := range seq {
		var v dtype.Value
		sigma, v = dt.Apply(sigma, y.Op)
		if y.ID == x.ID {
			return v
		}
	}
	panic(fmt.Sprintf("ops: Val: operation %v not in sequence", x.ID))
}

// ValSet is valset_σ(x, X, ≺) (§2.3): the set of values x may return over
// all linear extensions of the partial order po (a relation on IDs) on X.
// Values are deduplicated by their printed form; the map key is that form
// and the map value is a representative dtype.Value.
//
// limit bounds the number of linear extensions enumerated (<= 0: no limit);
// the exact valset requires no limit, which is exponential in |X| and
// intended for specification-sized sets only.
func ValSet(dt dtype.DataType, sigma dtype.State, x Operation, xs []Operation, po *order.Relation[ID], limit int) (map[string]dtype.Value, error) {
	byID := make(map[ID]Operation, len(xs))
	idSet := make(map[ID]struct{}, len(xs))
	for _, y := range xs {
		byID[y.ID] = y
		idSet[y.ID] = struct{}{}
	}
	if _, ok := byID[x.ID]; !ok {
		return nil, fmt.Errorf("ops: ValSet: operation %v not in set", x.ID)
	}
	out := make(map[string]dtype.Value)
	_, err := po.LinearExtensions(idSet, limit, func(ids []ID) bool {
		seq := make([]Operation, len(ids))
		for i, id := range ids {
			seq[i] = byID[id]
		}
		v := Val(dt, sigma, x, seq)
		out[fmt.Sprint(v)] = v
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ValInExtension computes val for x over the linear extension of po on xs
// obtained deterministically (topological sort with ID tie-break). This is
// the cheap single-witness companion to ValSet.
func ValInExtension(dt dtype.DataType, sigma dtype.State, x Operation, xs []Operation, po *order.Relation[ID]) (dtype.Value, error) {
	seq, err := SortByOrder(xs, po)
	if err != nil {
		return nil, err
	}
	return Val(dt, sigma, x, seq), nil
}

// SortByOrder returns xs sorted by a linear extension of po (deterministic
// ID tie-break). It fails if po is cyclic on xs.
func SortByOrder(xs []Operation, po *order.Relation[ID]) ([]Operation, error) {
	byID := make(map[ID]Operation, len(xs))
	idSet := make(map[ID]struct{}, len(xs))
	for _, y := range xs {
		byID[y.ID] = y
		idSet[y.ID] = struct{}{}
	}
	ids, err := po.TopoSort(idSet, func(a, b ID) bool { return a.Less(b) })
	if err != nil {
		return nil, err
	}
	seq := make([]Operation, len(ids))
	for i, id := range ids {
		seq[i] = byID[id]
	}
	return seq, nil
}

// WellFormed checks the Users well-formedness assumptions (§4) over a
// request history given in issue order: identifiers are unique, and every
// prev set references only earlier operations. It returns nil when the
// history is well-formed.
func WellFormed(history []Operation) error {
	seen := make(map[ID]struct{}, len(history))
	for i, x := range history {
		if _, dup := seen[x.ID]; dup {
			return fmt.Errorf("ops: duplicate operation id %v at position %d", x.ID, i)
		}
		for _, p := range x.Prev {
			if _, ok := seen[p]; !ok {
				return fmt.Errorf("ops: operation %v depends on %v, which was not requested earlier", x.ID, p)
			}
		}
		seen[x.ID] = struct{}{}
	}
	return nil
}
