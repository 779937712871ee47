package dtype

import (
	"reflect"
	"testing"
)

func TestKeyedApplyIsolatesObjects(t *testing.T) {
	k := NewKeyed(Counter{})
	s := k.Initial()
	var v Value
	s, v = k.Apply(s, KeyedOp{Key: "a", Op: CtrAdd{N: 5}})
	if v != "ok" {
		t.Fatalf("add value = %v", v)
	}
	s, _ = k.Apply(s, KeyedOp{Key: "b", Op: CtrAdd{N: 7}})
	_, va := k.Apply(s, KeyedOp{Key: "a", Op: CtrRead{}})
	_, vb := k.Apply(s, KeyedOp{Key: "b", Op: CtrRead{}})
	_, vc := k.Apply(s, KeyedOp{Key: "c", Op: CtrRead{}})
	if va != int64(5) || vb != int64(7) || vc != int64(0) {
		t.Fatalf("reads = %v/%v/%v, want 5/7/0", va, vb, vc)
	}
}

func TestKeyedApplyDoesNotMutateInput(t *testing.T) {
	k := NewKeyed(Counter{})
	s0 := k.Initial()
	s1, _ := k.Apply(s0, KeyedOp{Key: "a", Op: CtrAdd{N: 1}})
	s2, _ := k.Apply(s1, KeyedOp{Key: "a", Op: CtrAdd{N: 1}})
	// Snapshots must be stable: the replica memoizes intermediate states.
	if _, v := k.Apply(s1, KeyedOp{Key: "a", Op: CtrRead{}}); v != int64(1) {
		t.Fatalf("earlier state mutated: read = %v, want 1", v)
	}
	if _, v := k.Apply(s2, KeyedOp{Key: "a", Op: CtrRead{}}); v != int64(2) {
		t.Fatalf("later state wrong: read = %v, want 2", v)
	}
	if len(s0.(KeyedState)) != 0 {
		t.Fatal("initial state mutated")
	}
}

// TestKeyedReadSharesMap: a read-only inner operator on an existing object
// returns the input map itself — the states a replica caches around reads
// share one map — while a write returns a fresh map and leaves the input
// alone. A read of an object never named before still brings it into
// existence, so states (and their encodings) do not depend on the shortcut.
func TestKeyedReadSharesMap(t *testing.T) {
	k := NewKeyed(Counter{})
	s, _ := k.Apply(k.Initial(), KeyedOp{Key: "a", Op: CtrAdd{N: 3}})
	in := s.(KeyedState)

	read, v := k.Apply(s, KeyedOp{Key: "a", Op: CtrRead{}})
	if v != int64(3) {
		t.Fatalf("read = %v, want 3", v)
	}
	if reflect.ValueOf(read).UnsafePointer() != reflect.ValueOf(in).UnsafePointer() {
		t.Fatal("a read returned a copy of the object map")
	}

	added, _ := k.Apply(s, KeyedOp{Key: "a", Op: CtrAdd{N: 1}})
	if reflect.ValueOf(added).UnsafePointer() == reflect.ValueOf(in).UnsafePointer() {
		t.Fatal("an add returned its input map")
	}
	if in["a"] != int64(3) || added.(KeyedState)["a"] != int64(4) {
		t.Fatalf("add: input %v, output %v", in, added)
	}

	fresh, v := k.Apply(s, KeyedOp{Key: "b", Op: CtrRead{}})
	if v != int64(0) || len(fresh.(KeyedState)) != 2 || len(in) != 1 {
		t.Fatalf("read of a new object: value %v, state %v, input %v", v, fresh, in)
	}
}

func TestKeyedCommuteAndOblivious(t *testing.T) {
	k := NewKeyed(Counter{})
	onA := func(op Operator) Operator { return KeyedOp{Key: "a", Op: op} }
	onB := func(op Operator) Operator { return KeyedOp{Key: "b", Op: op} }
	// Distinct objects: always independent.
	if !k.Commute(onA(CtrAdd{N: 1}), onB(CtrDouble{})) || !k.Oblivious(onA(CtrRead{}), onB(CtrAdd{N: 1})) {
		t.Fatal("cross-object operators must be independent")
	}
	// Same object: delegate to the inner type (adds commute, add/double do
	// not; a read is not oblivious to an add).
	if !k.Commute(onA(CtrAdd{N: 1}), onA(CtrAdd{N: 2})) {
		t.Fatal("same-object adds must commute")
	}
	if k.Commute(onA(CtrAdd{N: 1}), onA(CtrDouble{})) {
		t.Fatal("add/double must not commute")
	}
	if k.Oblivious(onA(CtrRead{}), onA(CtrAdd{N: 1})) {
		t.Fatal("read must not be oblivious to add on the same object")
	}
	// Non-keyed operators: conservative false.
	if k.Commute(CtrAdd{N: 1}, onA(CtrAdd{N: 1})) {
		t.Fatal("malformed operator pair must not commute")
	}
}

func TestKeyedConstructorGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil inner", func() { NewKeyed(nil) })
	mustPanic("nested keyed", func() { NewKeyed(NewKeyed(Counter{})) })
	k := NewKeyed(Counter{})
	mustPanic("non-keyed op", func() { k.Apply(k.Initial(), CtrAdd{N: 1}) })
	mustPanic("wrong state type", func() { k.Apply(int64(0), KeyedOp{Key: "a", Op: CtrAdd{N: 1}}) })
	if k.Name() != "keyed:counter" {
		t.Fatalf("name = %q", k.Name())
	}
}
