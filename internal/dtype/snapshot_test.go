package dtype

import (
	"fmt"
	"math/rand"
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
		{Set{}, []byte("b\x00a")},                                 // unsorted members
		{Set{}, []byte("e1\x00e1")},                               // duplicate members
		{Bank{}, []byte("nosign")},                                // entry without '='
		{Bank{}, []byte("a=0")},                                   // zero balance is non-canonical
		{Bank{}, []byte("b=1\x00a=2")},                            // unsorted accounts
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
// Snapshotter contract, since a replica installs decoded peer state.
func FuzzStateDecoders(f *testing.F) {
	types := []DataType{Counter{}, Register{}, Set{}, Log{}, Bank{}}
	for i, dt := range types {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		st := dt.Initial()
		for j := 0; j < 30; j++ {
			st, _ = dt.Apply(st, RandomOp(rng, dt))
		}
		enc, err := dt.(Snapshotter).EncodeState(st)
		if err != nil {
			f.Fatalf("%s: encode: %v", dt.Name(), err)
		}
		f.Add(enc)
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
