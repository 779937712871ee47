package dtype

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// snapshotCases enumerates every registered serial type plus its keyed
// lift — the registry-driven shape keeps a future data type from shipping
// without snapshot coverage (adding it to builtin makes these tests cover
// it, or fail loudly if it lacks a Snapshotter).
func snapshotCases(t *testing.T) []DataType {
	t.Helper()
	var out []DataType
	for _, name := range Names() {
		dt, ok := ByName(name)
		if !ok {
			t.Fatalf("registry lists %q but ByName fails", name)
		}
		out = append(out, dt, NewKeyed(dt))
	}
	return out
}

func TestEveryRegisteredTypeSupportsSnapshots(t *testing.T) {
	for _, dt := range snapshotCases(t) {
		if !CanSnapshot(dt) {
			t.Errorf("%s: no snapshot encoding — recovery with pruning cannot serve this type", dt.Name())
		}
	}
}

// TestSnapshotterRoundTripProperty drives random operation sequences
// through every registered type and checks, at every prefix cut, that the
// encoded-and-decoded state is behaviourally identical to the original:
// identical bytes on re-encoding, and identical (state, value) results for
// the remaining suffix applied to both.
func TestSnapshotterRoundTripProperty(t *testing.T) {
	const (
		runs    = 40
		histLen = 25
	)
	for _, dt := range snapshotCases(t) {
		dt := dt
		t.Run(dt.Name(), func(t *testing.T) {
			sn, ok := dt.(Snapshotter)
			if !ok {
				t.Fatalf("%s does not implement Snapshotter", dt.Name())
			}
			for run := 0; run < runs; run++ {
				rng := rand.New(rand.NewSource(int64(run)))
				ops := make([]Operator, histLen)
				for i := range ops {
					ops[i] = RandomOp(rng, dt)
				}
				st := dt.Initial()
				for cut := 0; cut <= len(ops); cut++ {
					enc, err := sn.EncodeState(st)
					if err != nil {
						t.Fatalf("run %d cut %d: encode: %v", run, cut, err)
					}
					dec, err := sn.DecodeState(enc)
					if err != nil {
						t.Fatalf("run %d cut %d: decode: %v", run, cut, err)
					}
					enc2, err := sn.EncodeState(dec)
					if err != nil {
						t.Fatalf("run %d cut %d: re-encode: %v", run, cut, err)
					}
					if string(enc2) != string(enc) {
						t.Fatalf("run %d cut %d: encoding not canonical: % x vs % x", run, cut, enc2, enc)
					}
					// Behavioural equality: the suffix applied to both states
					// yields identical values and final states.
					a, b := st, dec
					for i := cut; i < len(ops); i++ {
						var va, vb Value
						a, va = dt.Apply(a, ops[i])
						b, vb = dt.Apply(b, ops[i])
						if fmt.Sprint(va) != fmt.Sprint(vb) {
							t.Fatalf("run %d cut %d op %d (%v): value %v via snapshot, %v direct",
								run, cut, i, ops[i], vb, va)
						}
					}
					if fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("run %d cut %d: final states diverge:\n direct:   %v\n snapshot: %v", run, cut, a, b)
					}
					if cut < len(ops) {
						st, _ = dt.Apply(st, ops[cut])
					}
				}
			}
		})
	}
}

// TestSnapshotterRejectsGarbage: decoders must fail on non-canonical
// input rather than construct ill-formed states.
func TestSnapshotterRejectsGarbage(t *testing.T) {
	cases := []struct {
		dt   DataType
		data []byte
	}{
		{Counter{}, []byte("short")},
		{Set{}, []byte{1, 'b', 1, 'a'}},                           // unsorted members
		{Set{}, []byte{2, 'e', '1', 2, 'e', '1'}},                 // duplicate members
		{Set{}, []byte{0x81, 0x00, 'a'}},                          // padded length
		{Set{}, []byte{1, 'a', 1}},                                // trailing byte
		{Bank{}, []byte{1, 'a'}},                                  // account without a balance
		{Bank{}, []byte{1, 'a', 0}},                               // zero balance is non-canonical
		{Bank{}, []byte{1, 'b', 2, 1, 'a', 4}},                    // unsorted accounts
		{Bank{}, []byte{1, 'a', 0x82, 0x00}},                      // padded balance
		{Bank{}, []byte{1, 'a', 2, 1}},                            // trailing byte
		{Log{}, []byte{0x81, 0x00, 'a'}},                          // padded length
		{Log{}, []byte{1, 'a', 2, 'b'}},                           // trailing byte
		{Directory{}, []byte("plain")},                            // no \x01 separator
		{Directory{}, []byte("n\x01kv")},                          // attribute without '='
		{Directory{}, []byte("b\x01\x00a\x01")},                   // unsorted names
		{NewKeyed(Counter{}), []byte{0xff}},                       // truncated varint payload
		{NewKeyed(Counter{}), append([]byte{1, 'k'}, 3, 0, 0, 0)}, // truncated inner state
		{NewKeyed(Register{}), []byte{0x81, 0x00, 'a', 0}},        // padded key length
	}
	for _, tc := range cases {
		sn := tc.dt.(Snapshotter)
		if st, err := sn.DecodeState(tc.data); err == nil {
			t.Errorf("%s: decoded garbage %q as %v", tc.dt.Name(), tc.data, st)
		}
	}
}

// TestKeyedSnapshotRequiresSnapshottableInner: the keyed lift reports and
// fails cleanly when its inner type has no encoding.
func TestKeyedSnapshotRequiresSnapshottableInner(t *testing.T) {
	k := NewKeyed(opaqueType{})
	if CanSnapshot(k) {
		t.Fatal("CanSnapshot true for keyed lift of a non-snapshottable type")
	}
	if _, err := k.EncodeState(KeyedState{}); err == nil {
		t.Fatal("EncodeState succeeded without an inner Snapshotter")
	}
	if _, err := k.DecodeState(nil); err == nil {
		t.Fatal("DecodeState succeeded without an inner Snapshotter")
	}
}

// opaqueType is a DataType without a Snapshotter.
type opaqueType struct{}

func (opaqueType) Name() string                             { return "opaque" }
func (opaqueType) Initial() State                           { return 0 }
func (opaqueType) Apply(s State, _ Operator) (State, Value) { return s, "ok" }

// FuzzStateDecoders feeds arbitrary bytes to the state decoders of the five
// built-in types not fuzzed on their own (Directory and Keyed have their
// own targets): decoding must never panic, and bytes a decoder accepts
// must re-encode byte for byte — the canonical-form half of the
// Snapshotter contract, since a replica installs decoded peer state. Its
// seeds are a RandomOp state of each type and, for Set, Bank and Log, a
// state whose fields hold separator bytes (anyStringOps).
func FuzzStateDecoders(f *testing.F) {
	types := []DataType{Counter{}, Register{}, Set{}, Log{}, Bank{}}
	seed := func(dt DataType, st State) {
		enc, err := dt.(Snapshotter).EncodeState(st)
		if err != nil {
			f.Fatalf("%s: encode: %v", dt.Name(), err)
		}
		f.Add(enc)
	}
	for i, dt := range types {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		st := dt.Initial()
		for j := 0; j < 30; j++ {
			st, _ = dt.Apply(st, RandomOp(rng, dt))
		}
		seed(dt, st)
	}
	for _, dt := range []DataType{Set{}, Bank{}, Log{}} {
		seed(dt, ApplyAll(dt, dt.Initial(), anyStringOps(dt, 1, 40)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, dt := range types {
			sn := dt.(Snapshotter)
			st, err := sn.DecodeState(b)
			if err != nil {
				continue
			}
			enc, err := sn.EncodeState(st)
			if err != nil {
				t.Fatalf("%s: decoded %q but cannot re-encode: %v", dt.Name(), b, err)
			}
			if string(enc) != string(b) {
				t.Fatalf("%s: decoded %q re-encodes as %q", dt.Name(), b, enc)
			}
		}
	})
}

// anyStringFields hold every separator the Set, Bank and Log states once
// joined their contents with, and the empty string.
var anyStringFields = []string{"", "\x00", "=", "|", ",", "a\x00b", "x=y", "a|b"}

// anyStringOps draws n mutators of dt (Set, Bank or Log) over
// anyStringFields, with amounts small enough that balances return to zero.
func anyStringOps(dt DataType, seed int64, n int) []Operator {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Operator, n)
	for i := range ops {
		f := anyStringFields[rng.Intn(len(anyStringFields))]
		amount := int64(rng.Intn(3) + 1)
		switch dt.(type) {
		case Set:
			ops[i] = []Operator{SetAdd{Elem: f}, SetAdd{Elem: f}, SetRemove{Elem: f}}[rng.Intn(3)]
		case Bank:
			ops[i] = []Operator{BankDeposit{Account: f, Amount: amount}, BankWithdraw{Account: f, Amount: amount}}[rng.Intn(2)]
		case Log:
			ops[i] = LogAppend{Entry: f}
		}
	}
	return ops
}

// anyStringModel is what a Set, Bank or Log history is checked against: a
// Go map of members or balances, or a slice of entries.
type anyStringModel struct {
	members  map[string]bool
	balances map[string]int64
	entries  []string
}

// apply applies op to the model and returns its value.
func (m *anyStringModel) apply(op Operator) Value {
	switch o := op.(type) {
	case SetAdd:
		m.members[o.Elem] = true
		return "ok"
	case SetRemove:
		delete(m.members, o.Elem)
		return "ok"
	case SetContains:
		return m.members[o.Elem]
	case SetSize:
		return len(m.members)
	case BankDeposit:
		m.balances[o.Account] += o.Amount
		return "ok"
	case BankWithdraw:
		if m.balances[o.Account] < o.Amount {
			return "insufficient"
		}
		m.balances[o.Account] -= o.Amount
		return "ok"
	case BankBalance:
		return m.balances[o.Account]
	case LogAppend:
		m.entries = append(m.entries, o.Entry)
		return len(m.entries)
	case LogRead:
		return strings.Join(m.entries, "|")
	case LogLen:
		return len(m.entries)
	}
	panic(fmt.Sprintf("no model for %T", op))
}

// TestStatesCarryAnyString runs Set, Bank and Log histories whose members,
// accounts and entries hold separator bytes against a Go map or slice
// model. Every value must match the model's, every query over every field
// must too, on the state and on its encode → decode round trip, the round
// trip must re-encode identically, and nothing may panic. A state joined
// into one string lost an empty member, counted "a|b" as two log entries,
// and panicked on the deposit after one to "a\x00b".
func TestStatesCarryAnyString(t *testing.T) {
	for _, dt := range []DataType{Set{}, Bank{}, Log{}} {
		t.Run(dt.Name(), func(t *testing.T) {
			var queries []Operator
			switch dt.(type) {
			case Set:
				queries = append(queries, SetSize{})
				for _, f := range anyStringFields {
					queries = append(queries, SetContains{Elem: f})
				}
			case Bank:
				for _, f := range anyStringFields {
					queries = append(queries, BankBalance{Account: f})
				}
			case Log:
				queries = []Operator{LogRead{}, LogLen{}}
			}
			sn := dt.(Snapshotter)
			apply := func(st State, op Operator) (next State, v Value) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%q on %q panics: %v", op, st, p)
					}
				}()
				return dt.Apply(st, op)
			}
			for seed := int64(0); seed < 20; seed++ {
				m := &anyStringModel{members: map[string]bool{}, balances: map[string]int64{}}
				st := dt.Initial()
				for i, op := range anyStringOps(dt, seed, 40) {
					var v Value
					st, v = apply(st, op)
					if want := m.apply(op); v != want {
						t.Fatalf("seed %d op %d: %q = %#v, model %#v", seed, i, op, v, want)
					}
					for _, q := range queries {
						if _, v := apply(st, q); v != m.apply(q) {
							t.Fatalf("seed %d op %d: %q = %#v, model %#v", seed, i, q, v, m.apply(q))
						}
					}
					enc, err := sn.EncodeState(st)
					if err != nil {
						t.Fatalf("seed %d op %d: encode %q: %v", seed, i, st, err)
					}
					dec, err := sn.DecodeState(enc)
					if err != nil {
						t.Fatalf("seed %d op %d: decode %x: %v", seed, i, enc, err)
					}
					if enc2, _ := sn.EncodeState(dec); string(enc2) != string(enc) {
						t.Fatalf("seed %d op %d: %x re-encodes as %x", seed, i, enc, enc2)
					}
					for _, q := range queries {
						if _, v := apply(dec, q); v != m.apply(q) {
							t.Fatalf("seed %d op %d: %q after a round trip = %#v, model %#v", seed, i, q, v, m.apply(q))
						}
					}
				}
			}
		})
	}
}
