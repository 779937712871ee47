package dtype

import "fmt"

// Register is a read/write register data type. The state is the current
// value (a string); the initial state is the empty string.
type Register struct{}

var (
	_ DataType         = Register{}
	_ Commuter         = Register{}
	_ ObliviousChecker = Register{}
	_ ReadOnlyChecker  = Register{}
)

// RegWrite sets the register to Val; its reportable value is "ok".
type RegWrite struct{ Val string }

// RegRead returns the current register contents.
type RegRead struct{}

func (w RegWrite) String() string { return fmt.Sprintf("write(%q)", w.Val) }
func (RegRead) String() string    { return "read" }

// Name implements DataType.
func (Register) Name() string { return "register" }

// Initial implements DataType.
func (Register) Initial() State { return "" }

// Apply implements DataType.
func (Register) Apply(s State, op Operator) (State, Value) {
	cur, ok := s.(string)
	if !ok {
		panic(fmt.Sprintf("dtype: register state has type %T, want string", s))
	}
	switch o := op.(type) {
	case RegWrite:
		return o.Val, "ok"
	case RegRead:
		return cur, cur
	default:
		panic(fmt.Sprintf("dtype: register does not support operator %T", op))
	}
}

// ReadOnly implements ReadOnlyChecker: reads never change the contents.
func (Register) ReadOnly(op Operator) bool {
	_, read := op.(RegRead)
	return read
}

// Commute implements Commuter: two register operators commute unless both
// are writes of different values.
func (Register) Commute(op1, op2 Operator) bool {
	w1, isW1 := op1.(RegWrite)
	w2, isW2 := op2.(RegWrite)
	if isW1 && isW2 {
		return w1.Val == w2.Val
	}
	return true // at least one read: reads never change state
}

// Oblivious implements ObliviousChecker: op1 is oblivious to op2 unless op1
// is a read and op2 is a write (the read's value depends on the write).
func (Register) Oblivious(op1, op2 Operator) bool {
	_, r1 := op1.(RegRead)
	_, w2 := op2.(RegWrite)
	return !(r1 && w2)
}
