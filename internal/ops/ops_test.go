package ops

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"esds/internal/dtype"
	"esds/internal/order"
)

func id(c string, n uint64) ID { return ID{Client: c, Seq: n} }

func TestIDStringAndLess(t *testing.T) {
	a := id("a", 1)
	b := id("a", 2)
	c := id("b", 0)
	if a.String() != "a:1" {
		t.Fatalf("String = %q", a.String())
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("seq ordering wrong")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("client ordering wrong")
	}
	if a.Less(a) {
		t.Error("Less must be irreflexive")
	}
}

func TestNewNormalizesPrev(t *testing.T) {
	x := New(dtype.CtrRead{}, id("c", 3),
		[]ID{id("c", 2), id("a", 9), id("c", 2), id("c", 3)}, false)
	if len(x.Prev) != 2 {
		t.Fatalf("prev = %v, want deduped 2 without self", x.Prev)
	}
	if !x.Prev[0].Less(x.Prev[1]) {
		t.Fatal("prev not sorted")
	}
	if x.HasPrev(id("c", 3)) {
		t.Fatal("self-reference not dropped")
	}
	if !x.HasPrev(id("a", 9)) || !x.HasPrev(id("c", 2)) || x.HasPrev(id("z", 1)) {
		t.Fatal("HasPrev wrong")
	}
	// The short sets that skip the sort.
	if got := New(dtype.CtrRead{}, id("c", 3), []ID{id("c", 3)}, false).Prev; len(got) != 0 {
		t.Fatalf("prev of a lone self-reference = %v, want empty", got)
	}
	if got := New(dtype.CtrRead{}, id("c", 3), []ID{id("b", 1)}, false).Prev; len(got) != 1 || got[0] != id("b", 1) {
		t.Fatalf("prev = %v, want [b:1]", got)
	}
	if got := New(dtype.CtrRead{}, id("c", 3), []ID{id("b", 1), id("b", 1), id("c", 3)}, false).Prev; len(got) != 1 || got[0] != id("b", 1) {
		t.Fatalf("prev = %v, want [b:1]", got)
	}
}

func TestOperationString(t *testing.T) {
	x := New(dtype.CtrAdd{N: 2}, id("c", 1), []ID{id("c", 0)}, true)
	want := "c:1=add(2)!{prev:c:0}"
	if got := x.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	y := New(dtype.CtrRead{}, id("d", 4), nil, false)
	if got := y.String(); got != "d:4=read" {
		t.Fatalf("String = %q", got)
	}
}

func TestCSC(t *testing.T) {
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	b := New(dtype.CtrAdd{N: 2}, id("c", 1), []ID{a.ID}, false)
	c := New(dtype.CtrRead{}, id("c", 2), []ID{a.ID, b.ID}, true)
	r := CSC([]Operation{a, b, c})
	for _, p := range [][2]ID{{a.ID, b.ID}, {a.ID, c.ID}, {b.ID, c.ID}} {
		if !r.Has(p[0], p[1]) {
			t.Errorf("CSC missing (%v,%v)", p[0], p[1])
		}
	}
	if r.Len() != 3 {
		t.Errorf("CSC has %d pairs, want 3", r.Len())
	}
	// Lemma 2.4: X ⊆ Y ⇒ CSC(X) ⊆ CSC(Y).
	if !CSC([]Operation{a, b, c}).Contains(CSC([]Operation{a, b})) {
		t.Error("Lemma 2.4 violated")
	}
}

func TestOutcomeAndVal(t *testing.T) {
	dt := dtype.Counter{}
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	d := New(dtype.CtrDouble{}, id("c", 1), nil, false)
	r := New(dtype.CtrRead{}, id("c", 2), nil, false)
	seq := []Operation{a, d, r}
	if got := Outcome(dt, dt.Initial(), seq); got != int64(2) {
		t.Fatalf("outcome = %v, want 2", got)
	}
	if got := Val(dt, dt.Initial(), r, seq); got != int64(2) {
		t.Fatalf("val(read) = %v, want 2", got)
	}
	if got := Val(dt, dt.Initial(), a, seq); got != "ok" {
		t.Fatalf("val(add) = %v", got)
	}
	// Val from a non-initial σ.
	if got := Val(dt, int64(10), r, seq); got != int64(22) {
		t.Fatalf("val from σ=10 = %v, want 22", got)
	}
}

func TestValPanicsOnAbsentOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dt := dtype.Counter{}
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	ghost := New(dtype.CtrRead{}, id("g", 9), nil, false)
	Val(dt, dt.Initial(), ghost, []Operation{a})
}

func TestValSetUnconstrained(t *testing.T) {
	// add(1) and double unordered; read ordered after both: the read can see
	// 2·(0+1)=2 or (2·0)+1=1.
	dt := dtype.Counter{}
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	d := New(dtype.CtrDouble{}, id("c", 1), nil, false)
	r := New(dtype.CtrRead{}, id("c", 2), []ID{a.ID, d.ID}, false)
	xs := []Operation{a, d, r}
	po := CSC(xs)
	vs, err := ValSet(dt, dt.Initial(), r, xs, po, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("valset = %v, want {1, 2}", vs)
	}
	if _, ok := vs["1"]; !ok {
		t.Errorf("valset missing 1: %v", vs)
	}
	if _, ok := vs["2"]; !ok {
		t.Errorf("valset missing 2: %v", vs)
	}
}

// Lemma 2.6: a larger order can only shrink the valset.
func TestLemma26MoreOrderShrinksValset(t *testing.T) {
	dt := dtype.Counter{}
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	d := New(dtype.CtrDouble{}, id("c", 1), nil, false)
	r := New(dtype.CtrRead{}, id("c", 2), []ID{a.ID, d.ID}, false)
	xs := []Operation{a, d, r}
	weak := CSC(xs)
	strong := weak.Clone()
	strong.Add(a.ID, d.ID) // now totally ordered
	vsWeak, err := ValSet(dt, dt.Initial(), r, xs, weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	vsStrong, err := ValSet(dt, dt.Initial(), r, xs, strong, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vsStrong) != 1 {
		t.Fatalf("totally ordered valset = %v, want singleton", vsStrong)
	}
	for k := range vsStrong {
		if _, ok := vsWeak[k]; !ok {
			t.Fatalf("strong valset %v not a subset of weak %v", vsStrong, vsWeak)
		}
	}
}

// Lemma 2.5 (at the ops level): valset is nonempty for any partial order.
func TestLemma25ValsetNonempty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	dt := dtype.Set{}
	elems := []string{"p", "q"}
	f := func(picks []uint8, deps []uint8) bool {
		n := len(picks)
		if n == 0 {
			return true
		}
		if n > 5 {
			n = 5
		}
		xs := make([]Operation, 0, n)
		for i := 0; i < n; i++ {
			var op dtype.Operator
			switch picks[i] % 3 {
			case 0:
				op = dtype.SetAdd{Elem: elems[int(picks[i]/3)%2]}
			case 1:
				op = dtype.SetRemove{Elem: elems[int(picks[i]/3)%2]}
			default:
				op = dtype.SetSize{}
			}
			var prev []ID
			if i > 0 && len(deps) > i && deps[i]%2 == 0 {
				prev = []ID{xs[int(deps[i]/2)%i].ID}
			}
			xs = append(xs, New(op, id("c", uint64(i)), prev, false))
		}
		po := CSC(xs).TransitiveClosure()
		for _, x := range xs {
			vs, err := ValSet(dt, dt.Initial(), x, xs, po, 0)
			if err != nil || len(vs) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Lemma 2.7 (specialization): if po totally orders X and every member of X
// precedes every non-member, then each x∈X has a singleton valset whose
// element is val over that total order.
func TestLemma27PrefixDeterminesVal(t *testing.T) {
	dt := dtype.Counter{}
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	d := New(dtype.CtrDouble{}, id("c", 1), nil, false)
	r := New(dtype.CtrRead{}, id("c", 2), nil, false)
	xs := []Operation{a, d, r}
	po := order.TotalOrderFromSequence([]ID{a.ID, d.ID}) // a < d, both < nothing else
	po.Add(a.ID, r.ID)
	po.Add(d.ID, r.ID) // r after the prefix
	vsA, err := ValSet(dt, dt.Initial(), a, xs, po, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vsA) != 1 {
		t.Fatalf("valset(a) = %v, want singleton", vsA)
	}
	vsR, err := ValSet(dt, dt.Initial(), r, xs, po, 0)
	if err != nil {
		t.Fatal(err)
	}
	// r is last and the prefix is total: singleton 2·(0+1)=2.
	if len(vsR) != 1 {
		t.Fatalf("valset(r) = %v, want singleton", vsR)
	}
	if _, ok := vsR["2"]; !ok {
		t.Fatalf("valset(r) = %v, want {2}", vsR)
	}
}

func TestValSetErrors(t *testing.T) {
	dt := dtype.Counter{}
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	ghost := New(dtype.CtrRead{}, id("g", 9), nil, false)
	if _, err := ValSet(dt, dt.Initial(), ghost, []Operation{a}, order.NewRelation[ID](), 0); err == nil {
		t.Error("ValSet of absent op should fail")
	}
	cyc := order.NewRelation[ID]()
	b := New(dtype.CtrAdd{N: 2}, id("c", 1), nil, false)
	cyc.Add(a.ID, b.ID)
	cyc.Add(b.ID, a.ID)
	if _, err := ValSet(dt, dt.Initial(), a, []Operation{a, b}, cyc, 0); err == nil {
		t.Error("ValSet over a cyclic order should fail")
	}
}

func TestSortByOrderAndValInExtension(t *testing.T) {
	dt := dtype.Log{}
	a := New(dtype.LogAppend{Entry: "a"}, id("c", 0), nil, false)
	b := New(dtype.LogAppend{Entry: "b"}, id("c", 1), []ID{a.ID}, false)
	r := New(dtype.LogRead{}, id("c", 2), []ID{b.ID}, false)
	xs := []Operation{r, b, a} // shuffled input
	po := CSC(xs).TransitiveClosure()
	seq, err := SortByOrder(xs, po)
	if err != nil {
		t.Fatal(err)
	}
	if seq[0].ID != a.ID || seq[1].ID != b.ID || seq[2].ID != r.ID {
		t.Fatalf("SortByOrder = %v", seq)
	}
	v, err := ValInExtension(dt, dt.Initial(), r, xs, po)
	if err != nil {
		t.Fatal(err)
	}
	if v != "a|b" {
		t.Fatalf("ValInExtension = %v, want a|b", v)
	}
	// Cycles surface as errors.
	cyc := po.Clone()
	cyc.Add(r.ID, a.ID)
	if _, err := SortByOrder(xs, cyc); err == nil {
		t.Error("SortByOrder over a cycle should fail")
	}
	if _, err := ValInExtension(dt, dt.Initial(), r, xs, cyc); err == nil {
		t.Error("ValInExtension over a cycle should fail")
	}
}

func TestWellFormed(t *testing.T) {
	a := New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false)
	b := New(dtype.CtrAdd{N: 2}, id("c", 1), []ID{a.ID}, false)
	if err := WellFormed([]Operation{a, b}); err != nil {
		t.Fatalf("well-formed history rejected: %v", err)
	}
	if err := WellFormed([]Operation{a, a}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := WellFormed([]Operation{b, a}); err == nil {
		t.Fatal("forward prev reference accepted")
	}
	if err := WellFormed(nil); err != nil {
		t.Fatalf("empty history rejected: %v", err)
	}
}

// Invariant 4.2 at the ops level: CSC of a well-formed history is acyclic.
func TestWellFormedCSCIsAcyclic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(42))}
	f := func(deps []uint8) bool {
		n := len(deps)
		if n > 8 {
			n = 8
		}
		xs := make([]Operation, 0, n)
		for i := 0; i < n; i++ {
			var prev []ID
			if i > 0 {
				// Reference up to two earlier ops.
				prev = append(prev, xs[int(deps[i])%i].ID)
				if deps[i]%3 == 0 {
					prev = append(prev, xs[int(deps[i]/3)%i].ID)
				}
			}
			xs = append(xs, New(dtype.CtrRead{}, id("c", uint64(i)), prev, deps[i]%2 == 0))
		}
		if err := WellFormed(xs); err != nil {
			return false
		}
		tc := CSC(xs).TransitiveClosure()
		return tc.IsIrreflexive() && tc.IsStrictPartialOrder()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// ValSet over the deterministic witness extension always contains
// ValInExtension's answer.
func TestValInExtensionMemberOfValSet(t *testing.T) {
	dt := dtype.Bank{}
	dep := New(dtype.BankDeposit{Account: "a", Amount: 5}, id("c", 0), nil, false)
	wd := New(dtype.BankWithdraw{Account: "a", Amount: 5}, id("c", 1), nil, false)
	bal := New(dtype.BankBalance{Account: "a"}, id("c", 2), []ID{dep.ID, wd.ID}, false)
	xs := []Operation{dep, wd, bal}
	po := CSC(xs)
	witness, err := ValInExtension(dt, dt.Initial(), bal, xs, po)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := ValSet(dt, dt.Initial(), bal, xs, po, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vs[fmt.Sprint(witness)]; !ok {
		t.Fatalf("witness %v not in valset %v", witness, vs)
	}
}

func TestValSetLimit(t *testing.T) {
	dt := dtype.Counter{}
	xs := []Operation{
		New(dtype.CtrAdd{N: 1}, id("c", 0), nil, false),
		New(dtype.CtrAdd{N: 2}, id("c", 1), nil, false),
		New(dtype.CtrAdd{N: 3}, id("c", 2), nil, false),
	}
	// All adds commute; every extension yields "ok" for the first op. The
	// limit just bounds the enumeration.
	vs, err := ValSet(dt, dt.Initial(), xs[0], xs, order.NewRelation[ID](), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("valset = %v", vs)
	}
}
