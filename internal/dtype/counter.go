package dtype

import "fmt"

// Counter is an integer counter supporting increment-by-n, doubling, and
// reads. Increment and Double do not commute — this is exactly the §10.3
// example of operations that must be ordered by the client in Commute mode
// (from state 1, inc-then-double yields 4 but double-then-inc yields 3).
type Counter struct{}

var (
	_ DataType         = Counter{}
	_ Commuter         = Counter{}
	_ ObliviousChecker = Counter{}
	_ ReadOnlyChecker  = Counter{}
)

// CtrAdd adds N to the counter; its reportable value is "ok".
type CtrAdd struct{ N int64 }

// CtrDouble doubles the counter; its reportable value is "ok".
type CtrDouble struct{}

// CtrRead returns the current count.
type CtrRead struct{}

func (a CtrAdd) String() string  { return fmt.Sprintf("add(%d)", a.N) }
func (CtrDouble) String() string { return "double" }
func (CtrRead) String() string   { return "read" }

// Name implements DataType.
func (Counter) Name() string { return "counter" }

// Initial implements DataType.
func (Counter) Initial() State { return int64(0) }

// Apply implements DataType.
func (Counter) Apply(s State, op Operator) (State, Value) {
	cur, ok := s.(int64)
	if !ok {
		panic(fmt.Sprintf("dtype: counter state has type %T, want int64", s))
	}
	switch o := op.(type) {
	case CtrAdd:
		return cur + o.N, "ok"
	case CtrDouble:
		return cur * 2, "ok"
	case CtrRead:
		return cur, cur
	default:
		panic(fmt.Sprintf("dtype: counter does not support operator %T", op))
	}
}

// ReadOnly implements ReadOnlyChecker: reads never change the count.
func (Counter) ReadOnly(op Operator) bool { return isCtrRead(op) }

// Commute implements Commuter. Adds commute with adds; doubles commute with
// doubles; reads commute with everything; add and double do not commute
// (unless the add is of zero).
func (Counter) Commute(op1, op2 Operator) bool {
	if isCtrRead(op1) || isCtrRead(op2) {
		return true
	}
	a1, add1 := op1.(CtrAdd)
	a2, add2 := op2.(CtrAdd)
	switch {
	case add1 && add2:
		return true
	case add1 && !add2:
		return a1.N == 0
	case !add1 && add2:
		return a2.N == 0
	default: // double, double
		return true
	}
}

// Oblivious implements ObliviousChecker: a read is not oblivious to any
// mutator (except add(0)); mutators report "ok" and are oblivious to
// everything.
func (Counter) Oblivious(op1, op2 Operator) bool {
	if !isCtrRead(op1) {
		return true
	}
	if a, ok := op2.(CtrAdd); ok && a.N == 0 {
		return true
	}
	return isCtrRead(op2)
}

func isCtrRead(op Operator) bool {
	_, ok := op.(CtrRead)
	return ok
}
