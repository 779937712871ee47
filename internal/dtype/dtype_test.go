package dtype

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRegisterApply(t *testing.T) {
	var dt Register
	s := dt.Initial()
	s, v := dt.Apply(s, RegWrite{Val: "x"})
	if v != "ok" {
		t.Fatalf("write value = %v", v)
	}
	_, v = dt.Apply(s, RegRead{})
	if v != "x" {
		t.Fatalf("read = %v, want x", v)
	}
	// Apply must not mutate the input state.
	_, _ = dt.Apply(s, RegWrite{Val: "y"})
	_, v = dt.Apply(s, RegRead{})
	if v != "x" {
		t.Fatal("Apply mutated its input state")
	}
}

func TestCounterApply(t *testing.T) {
	var dt Counter
	s := dt.Initial()
	s, _ = dt.Apply(s, CtrAdd{N: 3})
	s, _ = dt.Apply(s, CtrDouble{})
	_, v := dt.Apply(s, CtrRead{})
	if v != int64(6) {
		t.Fatalf("counter = %v, want 6", v)
	}
}

// The §10.3 increment/double example: from state 1, the two orders disagree.
func TestCounterIncDoubleNonCommuting(t *testing.T) {
	var dt Counter
	one, _ := dt.Apply(dt.Initial(), CtrAdd{N: 1})
	a := ApplyAll(dt, one, []Operator{CtrAdd{N: 1}, CtrDouble{}})
	b := ApplyAll(dt, one, []Operator{CtrDouble{}, CtrAdd{N: 1}})
	if a != int64(4) || b != int64(3) {
		t.Fatalf("inc;double = %v (want 4), double;inc = %v (want 3)", a, b)
	}
	if dt.Commute(CtrAdd{N: 1}, CtrDouble{}) {
		t.Fatal("Commute claims add(1) and double commute")
	}
	if !dt.Commute(CtrAdd{N: 0}, CtrDouble{}) {
		t.Fatal("add(0) trivially commutes with double")
	}
}

func TestSetApply(t *testing.T) {
	var dt Set
	s := dt.Initial()
	s, _ = dt.Apply(s, SetAdd{Elem: "b"})
	s, _ = dt.Apply(s, SetAdd{Elem: "a"})
	s, _ = dt.Apply(s, SetAdd{Elem: "a"}) // idempotent
	_, v := dt.Apply(s, SetSize{})
	if v != 2 {
		t.Fatalf("size = %v, want 2", v)
	}
	_, v = dt.Apply(s, SetContains{Elem: "a"})
	if v != true {
		t.Fatalf("contains(a) = %v", v)
	}
	s, _ = dt.Apply(s, SetRemove{Elem: "a"})
	_, v = dt.Apply(s, SetContains{Elem: "a"})
	if v != false {
		t.Fatalf("contains(a) after remove = %v", v)
	}
	if got := fmt.Sprint(s); got != "{b}" {
		t.Fatalf("set = %s, want {b}", got)
	}
}

func TestDirectoryApply(t *testing.T) {
	var dt Directory
	s := dt.Initial()
	// SetAttr before Bind fails — the dependency the paper resolves with
	// prev sets.
	s2, v := dt.Apply(s, DirSetAttr{Name: "svc", Key: "host", Val: "h1"})
	if v != "no-such-name" {
		t.Fatalf("setattr on unbound = %v", v)
	}
	if fmt.Sprint(s2) != fmt.Sprint(s) {
		t.Fatal("failed setattr changed state")
	}
	s, _ = dt.Apply(s, DirBind{Name: "svc"})
	s, v = dt.Apply(s, DirSetAttr{Name: "svc", Key: "host", Val: "h1"})
	if v != "ok" {
		t.Fatalf("setattr = %v", v)
	}
	_, v = dt.Apply(s, DirGetAttr{Name: "svc", Key: "host"})
	if v != "h1" {
		t.Fatalf("getattr = %v", v)
	}
	_, v = dt.Apply(s, DirLookup{Name: "svc"})
	if v != true {
		t.Fatalf("lookup = %v", v)
	}
	s, _ = dt.Apply(s, DirBind{Name: "alpha"})
	_, v = dt.Apply(s, DirList{})
	names := v.([]string)
	if len(names) != 2 || names[0] != "alpha" || names[1] != "svc" {
		t.Fatalf("list = %v", names)
	}
	s, _ = dt.Apply(s, DirUnbind{Name: "svc"})
	_, v = dt.Apply(s, DirLookup{Name: "svc"})
	if v != false {
		t.Fatalf("lookup after unbind = %v", v)
	}
	_, v = dt.Apply(s, DirGetAttr{Name: "svc", Key: "host"})
	if v != "" {
		t.Fatalf("getattr after unbind = %v", v)
	}
}

func TestLogApply(t *testing.T) {
	var dt Log
	s := dt.Initial()
	s, v := dt.Apply(s, LogAppend{Entry: "a"})
	if v != 1 {
		t.Fatalf("first append length = %v", v)
	}
	s, v = dt.Apply(s, LogAppend{Entry: "b"})
	if v != 2 {
		t.Fatalf("second append length = %v", v)
	}
	_, v = dt.Apply(s, LogRead{})
	if v != "a|b" {
		t.Fatalf("read = %v", v)
	}
	_, v = dt.Apply(s, LogLen{})
	if v != 2 {
		t.Fatalf("len = %v", v)
	}
	if got := fmt.Sprint(s); got != "log[a|b]" {
		t.Fatalf("log = %s, want log[a|b]", got)
	}
}

func TestBankApply(t *testing.T) {
	var dt Bank
	s := dt.Initial()
	s, _ = dt.Apply(s, BankDeposit{Account: "a", Amount: 10})
	s, v := dt.Apply(s, BankWithdraw{Account: "a", Amount: 4})
	if v != "ok" {
		t.Fatalf("withdraw = %v", v)
	}
	s, v = dt.Apply(s, BankWithdraw{Account: "a", Amount: 100})
	if v != "insufficient" {
		t.Fatalf("overdraw = %v", v)
	}
	_, v = dt.Apply(s, BankBalance{Account: "a"})
	if v != int64(6) {
		t.Fatalf("balance = %v, want 6", v)
	}
	_, v = dt.Apply(s, BankBalance{Account: "zzz"})
	if v != int64(0) {
		t.Fatalf("absent account balance = %v", v)
	}
}

func TestApplyAllValues(t *testing.T) {
	var dt Counter
	s, vals := ApplyAllValues(dt, dt.Initial(), []Operator{CtrAdd{N: 2}, CtrRead{}, CtrDouble{}, CtrRead{}})
	if s != int64(4) {
		t.Fatalf("final state = %v", s)
	}
	if vals[1] != int64(2) || vals[3] != int64(4) {
		t.Fatalf("vals = %v", vals)
	}
	if got := ApplyAll(dt, dt.Initial(), nil); got != int64(0) {
		t.Fatalf("ApplyAll(empty) = %v", got)
	}
}

func TestApplyPanicsOnBadInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"register bad state", func() { Register{}.Apply(42, RegRead{}) }},
		{"register bad op", func() { Register{}.Apply("", CtrRead{}) }},
		{"counter bad state", func() { Counter{}.Apply("x", CtrRead{}) }},
		{"counter bad op", func() { Counter{}.Apply(int64(0), RegRead{}) }},
		{"set bad state", func() { Set{}.Apply(3, SetSize{}) }},
		{"set bad op", func() { Set{}.Apply(SetState{}, RegRead{}) }},
		{"directory bad op", func() { Directory{}.Apply(DirState{}, RegRead{}) }},
		{"log bad op", func() { Log{}.Apply(LogState{}, RegRead{}) }},
		{"bank bad op", func() { Bank{}.Apply(BankState{}, RegRead{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

// --- Oracle cross-checks: declared Commute/Oblivious vs brute force ---

func registerOps() []Operator {
	return []Operator{RegRead{}, RegWrite{Val: "p"}, RegWrite{Val: "q"}, RegWrite{Val: "p"}}
}

func registerStates() []State { return []State{"", "p", "q", "z"} }

func counterOps() []Operator {
	return []Operator{CtrRead{}, CtrAdd{N: 0}, CtrAdd{N: 1}, CtrAdd{N: -2}, CtrDouble{}}
}

func counterStates() []State { return []State{int64(0), int64(1), int64(-3), int64(7)} }

func setOps() []Operator {
	return []Operator{
		SetAdd{Elem: "a"}, SetAdd{Elem: "b"}, SetRemove{Elem: "a"}, SetRemove{Elem: "b"},
		SetContains{Elem: "a"}, SetContains{Elem: "b"}, SetSize{},
	}
}

func setStates() []State {
	var dt Set
	s0 := dt.Initial()
	sa, _ := dt.Apply(s0, SetAdd{Elem: "a"})
	sb, _ := dt.Apply(s0, SetAdd{Elem: "b"})
	sab, _ := dt.Apply(sa, SetAdd{Elem: "b"})
	return []State{s0, sa, sb, sab}
}

func dirOps() []Operator {
	return []Operator{
		DirBind{Name: "n"}, DirBind{Name: "m"}, DirUnbind{Name: "n"},
		DirSetAttr{Name: "n", Key: "k", Val: "1"}, DirSetAttr{Name: "n", Key: "k", Val: "2"},
		DirSetAttr{Name: "n", Key: "j", Val: "1"}, DirSetAttr{Name: "m", Key: "k", Val: "1"},
		DirGetAttr{Name: "n", Key: "k"}, DirLookup{Name: "n"}, DirLookup{Name: "m"}, DirList{},
	}
}

func dirStates() []State {
	var dt Directory
	s0 := dt.Initial()
	s1, _ := dt.Apply(s0, DirBind{Name: "n"})
	s2, _ := dt.Apply(s1, DirSetAttr{Name: "n", Key: "k", Val: "9"})
	s3, _ := dt.Apply(s2, DirBind{Name: "m"})
	return []State{s0, s1, s2, s3}
}

func logOps() []Operator {
	return []Operator{LogAppend{Entry: "x"}, LogAppend{Entry: "y"}, LogRead{}, LogLen{}}
}

func logStates() []State {
	var dt Log
	s0 := dt.Initial()
	s1, _ := dt.Apply(s0, LogAppend{Entry: "e"})
	return []State{s0, s1}
}

func bankOps() []Operator {
	return []Operator{
		BankDeposit{Account: "a", Amount: 5}, BankDeposit{Account: "b", Amount: 3},
		BankWithdraw{Account: "a", Amount: 4}, BankWithdraw{Account: "a", Amount: 9},
		BankBalance{Account: "a"}, BankBalance{Account: "b"},
	}
}

func bankStates() []State {
	var dt Bank
	s0 := dt.Initial()
	s1, _ := dt.Apply(s0, BankDeposit{Account: "a", Amount: 6})
	s2, _ := dt.Apply(s1, BankDeposit{Account: "b", Amount: 2})
	return []State{s0, s1, s2}
}

// TestCommuteOracle: whenever a data type declares Commute(op1,op2)=true, the
// brute-force check over sampled states must agree. (Declared false is
// allowed to be conservative, but for our types we assert exactness on the
// sampled states in both directions to keep the oracle honest.)
func TestCommuteOracle(t *testing.T) {
	cases := []struct {
		dt     DataType
		ops    []Operator
		states []State
	}{
		{Register{}, registerOps(), registerStates()},
		{Counter{}, counterOps(), counterStates()},
		{Set{}, setOps(), setStates()},
		{Directory{}, dirOps(), dirStates()},
		{Log{}, logOps(), logStates()},
		{Bank{}, bankOps(), bankStates()},
	}
	for _, tc := range cases {
		t.Run(tc.dt.Name(), func(t *testing.T) {
			c := tc.dt.(Commuter)
			for _, op1 := range tc.ops {
				for _, op2 := range tc.ops {
					declared := c.Commute(op1, op2)
					actual := CheckCommute(tc.dt, op1, op2, tc.states)
					if declared && !actual {
						t.Errorf("%v / %v: declared commuting but states diverge", op1, op2)
					}
					if !declared && actual {
						// Conservative "false" is sound; we only log exact
						// mismatches that would matter for optimization
						// quality, not correctness.
						t.Logf("note: %v / %v declared non-commuting but agree on sampled states", op1, op2)
					}
				}
			}
		})
	}
}

// TestObliviousOracle: declared Oblivious(op1,op2)=true must match brute
// force over sampled states.
func TestObliviousOracle(t *testing.T) {
	cases := []struct {
		dt     DataType
		ops    []Operator
		states []State
	}{
		{Register{}, registerOps(), registerStates()},
		{Counter{}, counterOps(), counterStates()},
		{Set{}, setOps(), setStates()},
		{Directory{}, dirOps(), dirStates()},
		{Log{}, logOps(), logStates()},
		{Bank{}, bankOps(), bankStates()},
	}
	for _, tc := range cases {
		t.Run(tc.dt.Name(), func(t *testing.T) {
			o := tc.dt.(ObliviousChecker)
			for _, op1 := range tc.ops {
				for _, op2 := range tc.ops {
					if o.Oblivious(op1, op2) && !CheckOblivious(tc.dt, op1, op2, tc.states) {
						t.Errorf("%v declared oblivious to %v but value changes", op1, op2)
					}
				}
			}
		})
	}
}

// TestReadOnlyOracle: every operator a type declares read-only must leave
// every sampled state unchanged, and every type names at least one query.
func TestReadOnlyOracle(t *testing.T) {
	cases := []struct {
		dt     DataType
		ops    []Operator
		states []State
	}{
		{Register{}, registerOps(), registerStates()},
		{Counter{}, counterOps(), counterStates()},
		{Set{}, setOps(), setStates()},
		{Directory{}, dirOps(), dirStates()},
		{Log{}, logOps(), logStates()},
		{Bank{}, bankOps(), bankStates()},
	}
	for _, tc := range cases {
		t.Run(tc.dt.Name(), func(t *testing.T) {
			queries := 0
			for _, op := range tc.ops {
				if !ReadOnly(tc.dt, op) {
					continue
				}
				queries++
				for _, s := range tc.states {
					if next, _ := tc.dt.Apply(s, op); !stateEqual(tc.dt, next, s) {
						t.Errorf("%v declared read-only but takes %v to %v", op, s, next)
					}
				}
			}
			if queries == 0 {
				t.Error("no operator declared read-only")
			}
		})
	}
	if ReadOnly(opaqueType{}, RegRead{}) {
		t.Error("a type without ReadOnlyChecker must not be read-only")
	}
}

// TestIndependent: Independent must require both directions of obliviousness
// plus commutativity, and must be false for types lacking the interfaces.
func TestIndependent(t *testing.T) {
	var dt Counter
	if !Independent(dt, CtrAdd{N: 1}, CtrAdd{N: 2}) {
		t.Error("two adds should be independent")
	}
	if Independent(dt, CtrRead{}, CtrAdd{N: 1}) {
		t.Error("read is not oblivious to add; not independent")
	}
	if Independent(bareDT{}, CtrAdd{N: 1}, CtrAdd{N: 2}) {
		t.Error("types without Commuter must be reported dependent")
	}
}

// bareDT implements only DataType.
type bareDT struct{}

func (bareDT) Name() string                             { return "bare" }
func (bareDT) Initial() State                           { return 0 }
func (bareDT) Apply(s State, _ Operator) (State, Value) { return s, "ok" }

// Property: applying a random permutation of pairwise-commuting set mutators
// yields the same final state.
func TestCommutingPermutationsConverge(t *testing.T) {
	var dt Set
	rng := rand.New(rand.NewSource(5))
	ops := []Operator{
		SetAdd{Elem: "a"}, SetAdd{Elem: "b"}, SetAdd{Elem: "c"}, SetRemove{Elem: "d"},
	}
	base := fmt.Sprint(ApplyAll(dt, dt.Initial(), ops))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(ops))
		shuffled := make([]Operator, len(ops))
		for i, p := range perm {
			shuffled[i] = ops[p]
		}
		if got := fmt.Sprint(ApplyAll(dt, dt.Initial(), shuffled)); got != base {
			t.Fatalf("permutation %v produced %s, want %s", perm, got, base)
		}
	}
}

func TestOperatorStrings(t *testing.T) {
	// String forms are part of the diagnostic API; keep them stable.
	checks := map[string]fmt.Stringer{
		`write("v")`:     RegWrite{Val: "v"},
		"add(3)":         CtrAdd{N: 3},
		"double":         CtrDouble{},
		"add(x)":         SetAdd{Elem: "x"},
		"bind(n)":        DirBind{Name: "n"},
		"setattr(n.k=v)": DirSetAttr{Name: "n", Key: "k", Val: "v"},
		"append(e)":      LogAppend{Entry: "e"},
		"deposit(a,7)":   BankDeposit{Account: "a", Amount: 7},
		"withdraw(a,7)":  BankWithdraw{Account: "a", Amount: 7},
		"balance(a)":     BankBalance{Account: "a"},
		"contains(x)":    SetContains{Elem: "x"},
		"lookup(n)":      DirLookup{Name: "n"},
		"getattr(n.k)":   DirGetAttr{Name: "n", Key: "k"},
		"unbind(n)":      DirUnbind{Name: "n"},
		"remove(x)":      SetRemove{Elem: "x"},
	}
	for want, op := range checks {
		if got := op.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
