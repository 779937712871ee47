package dtype

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// gobRoundTrip carries v in an interface field through gob, the way the
// messages that still travel as gob carry operators and values.
func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	type carrier struct{ V any }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(carrier{V: v}); err != nil {
		t.Fatalf("gob encode %#v: %v", v, err)
	}
	var out carrier
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %#v: %v", v, err)
	}
	return out.V
}

// wireOperatorRoundTrip and wireValueRoundTrip carry an operator or a
// value through the wire form.
func wireOperatorRoundTrip(t *testing.T, op Operator) Operator {
	t.Helper()
	b, err := AppendOperator(nil, op)
	if err != nil {
		t.Fatalf("AppendOperator(%#v): %v", op, err)
	}
	r := NewWireReader(b)
	got := ReadOperator(&r)
	if err := r.Finish(); err != nil {
		t.Fatalf("ReadOperator(%#v): %v", op, err)
	}
	return got
}

func wireValueRoundTrip(t *testing.T, v Value) Value {
	t.Helper()
	b, err := AppendValue(nil, v)
	if err != nil {
		t.Fatalf("AppendValue(%#v): %v", v, err)
	}
	r := NewWireReader(b)
	got := ReadValue(&r)
	if err := r.Finish(); err != nil {
		t.Fatalf("ReadValue(%#v): %v", v, err)
	}
	return got
}

// TestWireFormMatchesGob runs random histories of every built-in data type,
// bare and keyed, plus key installs, and requires every operator and every
// reportable value to come out of the wire form exactly as gob delivers
// it — the same dynamic type (int stays int, int64 stays int64) and nil
// where gob gives nil.
func TestWireFormMatchesGob(t *testing.T) {
	RegisterWire()
	rng := rand.New(rand.NewSource(1))
	check := func(what string, sent, viaWire, viaGob any) {
		t.Helper()
		if !reflect.DeepEqual(viaWire, viaGob) {
			t.Fatalf("%s %#v: wire form gives %#v, gob %#v", what, sent, viaWire, viaGob)
		}
	}
	var dts []DataType
	for _, name := range Names() {
		dt, _ := ByName(name)
		dts = append(dts, dt, NewKeyed(dt))
	}
	for _, dt := range dts {
		s := dt.Initial()
		for i := 0; i < 300; i++ {
			op := RandomOp(rng, dt)
			check("operator", op, wireOperatorRoundTrip(t, op), gobRoundTrip(t, op))
			var v Value
			s, v = dt.Apply(s, op)
			check("value", v, wireValueRoundTrip(t, v), gobRoundTrip(t, v))
		}
		k, ok := dt.(Keyed)
		if !ok {
			continue
		}
		// Installs of a real object state, an empty one, and a state that
		// does not decode (its value reports the failure).
		inner, _ := s.(KeyedState).Get("obj0")
		if inner == nil {
			inner = k.Inner.Initial()
		}
		enc, err := k.Inner.(Snapshotter).EncodeState(inner)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range []KeyInstall{
			{Key: "obj0", State: enc, Subsumes: []OpRef{{Client: "c", Seq: 1}, {Client: "d", Seq: math.MaxUint64}}},
			{Key: "obj1", State: []byte{}, Subsumes: []OpRef{}},
			{Key: "", State: []byte{0xff, 0xfe}},
		} {
			check("operator", inst, wireOperatorRoundTrip(t, inst), gobRoundTrip(t, inst))
			_, v := dt.Apply(s, inst)
			check("value", v, wireValueRoundTrip(t, v), gobRoundTrip(t, v))
		}
	}
	for _, v := range []Value{
		nil, "", "ok", true, false,
		0, -1, math.MaxInt, math.MinInt,
		int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64),
		[]string(nil), []string{}, []string{""}, []string{"a", "", "b"},
	} {
		check("value", v, wireValueRoundTrip(t, v), gobRoundTrip(t, v))
	}
	for _, op := range []Operator{
		CtrAdd{N: math.MinInt64}, CtrAdd{N: math.MaxInt64},
		BankWithdraw{Account: "", Amount: -7},
		DirSetAttr{Name: "n\x00", Key: "", Val: "v|w"},
		KeyedOp{Key: "k", Op: BankDeposit{Account: "a", Amount: 3}},
	} {
		check("operator", op, wireOperatorRoundTrip(t, op), gobRoundTrip(t, op))
	}
}

// TestEveryWireOperatorHasATag guards the tag table: every operator type
// RegisterWire registers must encode, and decode to its own type. An
// operator type added to the list without a tag fails here instead of
// being dropped on every TCP link.
func TestEveryWireOperatorHasATag(t *testing.T) {
	seen := make(map[byte]reflect.Type)
	for _, op := range wireOperators {
		b, err := AppendOperator(nil, op)
		if err != nil {
			t.Fatalf("registered operator %T has no wire form: %v", op, err)
		}
		if prev, dup := seen[b[0]]; dup {
			t.Fatalf("%T and %v share tag %d", op, prev, b[0])
		}
		seen[b[0]] = reflect.TypeOf(op)
		if got := wireOperatorRoundTrip(t, op); reflect.TypeOf(got) != reflect.TypeOf(op) {
			t.Fatalf("%T decodes as %T", op, got)
		}
	}
}

// TestWireFormRefusals pins what has no wire form — operators and values
// of other types, a keyed operator nested in another, an inner operator
// that is nil — and that the reader refuses bytes no encoder writes,
// padded varints among them.
func TestWireFormRefusals(t *testing.T) {
	type custom struct{ N int }
	for _, op := range []Operator{
		nil, custom{}, 7,
		KeyedOp{Key: "a", Op: KeyedOp{Key: "b", Op: CtrRead{}}},
		KeyedOp{Key: "a", Op: KeyInstall{Key: "b"}},
		KeyedOp{Key: "a"},
	} {
		if _, err := AppendOperator(nil, op); err == nil {
			t.Errorf("operator %#v encoded", op)
		}
	}
	for _, v := range []Value{custom{}, 1.5, int32(1), uint64(1), []int{1}, CtrRead{}} {
		if _, err := AppendValue(nil, v); err == nil {
			t.Errorf("value %#v encoded", v)
		}
	}
	str, _ := AppendValue(nil, "x")
	nested, _ := AppendOperator(nil, KeyedOp{Key: "a", Op: CtrRead{}})
	nested = append(nested[:len(nested)-1], tagKeyedOp, 0, tagCtrRead)
	for name, b := range map[string][]byte{
		"empty":                   nil,
		"tag zero":                {0},
		"unknown tag":             {0xff},
		"value as operator":       str,
		"keyed in keyed":          nested,
		"string past the input":   {tagRegWrite, 5, 'a'},
		"install count past data": {tagKeyInstall, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x01},
		"truncated varint":        {tagCtrAdd, 0x80},
		"padded varint":           {tagCtrAdd, 0x82, 0x00},
		"padded string length":    {tagRegWrite, 0x81, 0x00, 'a'},
	} {
		r := NewWireReader(b)
		ReadOperator(&r)
		if r.Finish() == nil {
			t.Errorf("%s: operator %x decoded", name, b)
		}
	}
	op, _ := AppendOperator(nil, CtrRead{})
	for name, b := range map[string][]byte{
		"operator as value":     op,
		"list count past data":  {tagStrings, 3, 0},
		"trailing bytes":        {tagNil, 0},
		"string past the input": {tagString, 2, 'a'},
	} {
		r := NewWireReader(b)
		ReadValue(&r)
		if r.Finish() == nil {
			t.Errorf("%s: value %x decoded", name, b)
		}
	}
}
