package dtype

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
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
	if s0.(KeyedState).Len() != 0 {
		t.Fatal("initial state mutated")
	}
}

// TestKeyedReadSharesMap: a read-only inner operator on an existing object
// returns the input map itself — the states a replica caches around reads
// share one trie — while a write returns a new map and leaves the input
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
	if read.(KeyedState).objects.root != in.objects.root {
		t.Fatal("a read returned a copy of the object map")
	}

	added, _ := k.Apply(s, KeyedOp{Key: "a", Op: CtrAdd{N: 1}})
	if added.(KeyedState).objects.root == in.objects.root {
		t.Fatal("an add returned its input map")
	}
	inA, _ := in.Get("a")
	addedA, _ := added.(KeyedState).Get("a")
	if inA != int64(3) || addedA != int64(4) {
		t.Fatalf("add: input %v, output %v", in, added)
	}

	fresh, v := k.Apply(s, KeyedOp{Key: "b", Op: CtrRead{}})
	if v != int64(0) || fresh.(KeyedState).Len() != 2 || in.Len() != 1 {
		t.Fatalf("read of a new object: value %v, state %v, input %v", v, fresh, in)
	}
}

// keyedHistoryOp draws an operator of a keyed history: RandomOp's inner
// operator on one of the objects o000, o001, …
func keyedHistoryOp(rng *rand.Rand, k Keyed, objects int) KeyedOp {
	return KeyedOp{Key: fmt.Sprintf("o%03d", rng.Intn(objects)), Op: RandomOp(rng, k.Inner)}
}

// modelEncoding is the keyed encoding as the map-backed state wrote it:
// sorted (key, inner encoding) pairs, each uvarint length-prefixed.
func modelEncoding(t *testing.T, k Keyed, m map[string]State) []byte {
	t.Helper()
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []byte
	for _, key := range keys {
		enc, err := k.Inner.(Snapshotter).EncodeState(m[key])
		if err != nil {
			t.Fatal(err)
		}
		out = binary.AppendUvarint(out, uint64(len(key)))
		out = append(out, key...)
		out = binary.AppendUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
	}
	return out
}

// TestKeyedStateMatchesMapModel runs random histories over keyed counters,
// sets and directories against the map[string]State the trie replaced:
// every value, printed state and encoding must agree after every operator,
// and every earlier version must still read, print and encode as it did
// when it was current once the later writes are done (persistence).
func TestKeyedStateMatchesMapModel(t *testing.T) {
	for _, inner := range []DataType{Counter{}, Set{}, Directory{}} {
		k := NewKeyed(inner)
		for seed := int64(0); seed < 4; seed++ {
			objects := []int{3, 40, 300, 2000}[seed]
			rng := rand.New(rand.NewSource(seed))
			type version struct {
				st       State
				str, enc string
			}
			var versions []version
			st, model := k.Initial(), map[string]State{}
			for i := 0; i < 2*objects; i++ {
				op := keyedHistoryOp(rng, k, objects)
				cur, ok := model[op.Key]
				if !ok {
					cur = inner.Initial()
				}
				next, want := inner.Apply(cur, op.Op)
				var got Value
				st, got = k.Apply(st, op)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s seed %d op %d (%v): value %v, model %v", k.Name(), seed, i, op, got, want)
				}
				model[op.Key] = next
				if st.(KeyedState).Len() != len(model) {
					t.Fatalf("%s seed %d op %d: Len %d, model %d", k.Name(), seed, i, st.(KeyedState).Len(), len(model))
				}
				if objects > 40 && i%32 != 0 {
					continue // the whole-state comparison is O(objects)
				}
				enc, err := k.EncodeState(st)
				if err != nil {
					t.Fatal(err)
				}
				if str := fmt.Sprint(model); fmt.Sprint(st) != str || string(enc) != string(modelEncoding(t, k, model)) {
					t.Fatalf("%s seed %d op %d: state %v / % x, model %v", k.Name(), seed, i, st, enc, str)
				}
				if i%7 == 0 {
					versions = append(versions, version{st, fmt.Sprint(model), string(enc)})
				}
			}
			for j, v := range versions {
				enc, _ := k.EncodeState(v.st)
				if fmt.Sprint(v.st) != v.str || string(enc) != v.enc {
					t.Fatalf("%s seed %d: version %d changed after later writes: %v, was %s", k.Name(), seed, j, v.st, v.str)
				}
			}
		}
	}
}

// keyedGolden are histories of 300 keyedHistoryOp operators over 48 objects
// (seed, inner type) with the SHA-256 of the final encoding, of every
// intermediate encoding and of every intermediate printed state (each
// followed by 0xff), all recorded from the map-backed state the trie
// replaced, except the set encodings, recorded when Set's own encoding
// became length-prefixed (its printed states did not change).
// Byte-identical encodings keep range catch-up and KeyInstall working
// between mixed versions.
var keyedGolden = []struct {
	inner                string
	seed                 int64
	finalSHA, encs, strs string
}{
	{"counter", 0, "584e08ae22d5ab38eb2868d93d5cf96dd28d4ef2e7fe985539a298279dfaa76c", "387a69d76591b5a5f40f243ccd3b8f952076f38ee950ba3ee830a9bfd03f78aa", "e5789ef4843045b0670a56f30dde60823493c575f859f48363c6b0831dd1a273"},
	{"counter", 1, "27aec42b3009a845efaab928b0aa51521fae1e8a5b664dd7b801568e793ba470", "b77cc4b8beb7d6f4626d92c4d14fd283e5fe71ec50a2cb026d9c8f1e26df3b4a", "8abfdb4d1f0084ef58d549cee5bf655717d4c01063d2d20be92a0ac423cae235"},
	{"counter", 2, "eb5f6a0971412bf00338be3475e71c41c91a3df91b65edf87eb39c8e197a47dd", "ef20ac6f6a56eab8d70edf9b401045bab44f1fc77b7254d17cd7923efa23e005", "ffa27a98371e34133eb58afac7fc32b4340d6e08dba3b4d451304464efdf228b"},
	{"set", 0, "1ade2382d0ef152e8e9be54f85ec7d8715ac1c57b44b881314a4504fd0b8598e", "47aad9c3682a8cdd95738a0da930424f4d897eeda4b6fc8b40838fec8179bfe9", "f4d2fb26628c949838e634719da7ca8d27993cb52e8f051761422d03b63b5d1b"},
	{"set", 1, "0c037c5eceb6ec5b13d2096fab5b2cf81843a609fc25cee58edae858f71327ee", "0859bc4b94b817a6c7040ab7d041c73b417d6cbcfbf1463cf9ecac65737fb76d", "8d5f82cb790d207fc81205eb45450f546c8f313bbe2731557032bca6f87babd9"},
	{"set", 2, "ac1bbb74ecbfa678d6ef16875543d26e2ac7c6e3dd88acd213884f97bea935c9", "4c78bdb40fe72c0d77a8f72ba9beef65fbde338e8c4cc484d22de61c41df1443", "204ce3087bc77e3eb9645024919bd5df15532ec7bdd7700faba89eb2e4b0508c"},
	{"directory", 0, "2e567adeeb6db972006998ca9bf218535b96f5391c5cbe87f6ea286f19992f4e", "3957c279b09894b2242d86e90201a37d3efe5bf48fa36ad3a905f16858b51842", "1091cea129be644ab65dda752501165b31edddc60b3a655f4608625b80996e8c"},
	{"directory", 1, "fa1ac0f759df81b499897b9a23fe80bbf56b63cc6cbd48e495e0bba6301230bd", "2e3361d6161ad9aec3c058a1bd80e21c27361febc8093815828c2787b6a6c140", "36b086bf2ec820823a5c9f43994d70e490f5957bdb9430bcceb202d23be9c7e4"},
	{"directory", 2, "32b04304d89d1c36594d212c5850942eda83dcb990a03fb05829745c7a1021fc", "ba08d42bdb7e5b98f8241de8a73ca129a309ba2242ab7af30f5d1907c4436073", "815bf1b49a52f85926dc6ab00d35aeace9dc668ec09a425f109e78a2ade74935"},
}

// checkKeyedGolden replays the golden histories and two literal encodings
// recorded from the map-backed state.
func checkKeyedGolden(tb testing.TB) {
	for _, g := range keyedGolden {
		inner, _ := ByName(g.inner)
		k := NewKeyed(inner)
		rng := rand.New(rand.NewSource(g.seed))
		st := k.Initial()
		encs, strs := sha256.New(), sha256.New()
		for i := 0; i < 300; i++ {
			st, _ = k.Apply(st, keyedHistoryOp(rng, k, 48))
			enc, err := k.EncodeState(st)
			if err != nil {
				tb.Fatalf("%s seed %d op %d: encode: %v", k.Name(), g.seed, i, err)
			}
			encs.Write(append(enc, 0xff))
			strs.Write(append([]byte(fmt.Sprint(st)), 0xff))
		}
		enc, _ := k.EncodeState(st)
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != g.finalSHA ||
			fmt.Sprintf("%x", encs.Sum(nil)) != g.encs || fmt.Sprintf("%x", strs.Sum(nil)) != g.strs {
			tb.Fatalf("%s seed %d: encodings or printed states differ from the golden history", k.Name(), g.seed)
		}
	}
	literals := []struct {
		dt       Keyed
		ops      []KeyedOp
		hex, str string
	}{
		{NewKeyed(Counter{}), []KeyedOp{{"b", CtrAdd{N: -1}}, {"a", CtrAdd{N: 5}}, {"", CtrRead{}}},
			"000800000000000000000161080000000000000005016208ffffffffffffffff", "map[:0 a:5 b:-1]"},
		{NewKeyed(Set{}), []KeyedOp{{"x", SetAdd{Elem: "e1"}}, {"x", SetAdd{Elem: "e0"}}, {"y", SetContains{Elem: "e0"}}},
			"017806026530026531017900", "map[x:{e0,e1} y:{}]"},
	}
	for _, l := range literals {
		st := l.dt.Initial()
		for _, op := range l.ops {
			st, _ = l.dt.Apply(st, op)
		}
		if enc, _ := l.dt.EncodeState(st); fmt.Sprintf("%x", enc) != l.hex || fmt.Sprint(st) != l.str {
			tb.Fatalf("%s: encoding %x / %v, golden %s / %s", l.dt.Name(), enc, st, l.hex, l.str)
		}
	}
}

// TestKeyedStateHashCollisions forces collisions through the hash hook:
// every key on one hash (one bucket below seven single-child levels), and
// keys on 16 hashes (buckets beside a shallow trie). Reads, the printed
// form, the encoding and earlier versions must match a map model.
func TestKeyedStateHashCollisions(t *testing.T) {
	fnv := keyedHash
	t.Cleanup(func() { keyedHash = fnv })
	k := NewKeyed(Counter{})
	for _, hash := range []func(string) uint32{
		func(string) uint32 { return 0x9e3779b9 },
		func(key string) uint32 { return fnv(key) & 0x00c00003 },
	} {
		keyedHash = hash
		var st KeyedState
		var versions []KeyedState
		model := map[string]State{}
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("c%d", i%50)
			versions = append(versions, st)
			next, _ := k.Apply(st, KeyedOp{Key: key, Op: CtrAdd{N: int64(i)}})
			st = next.(KeyedState)
			cur, _ := model[key].(int64)
			model[key] = cur + int64(i)
		}
		enc, _ := k.EncodeState(st)
		if st.Len() != len(model) || fmt.Sprint(st) != fmt.Sprint(model) || string(enc) != string(modelEncoding(t, k, model)) {
			t.Fatalf("colliding trie %v, model %v", st, model)
		}
		for key, want := range model {
			if got, ok := st.Get(key); !ok || got != want {
				t.Fatalf("Get(%s) = %v, want %v", key, got, want)
			}
		}
		if _, ok := st.Get("absent"); ok {
			t.Fatal("Get found a key never written")
		}
		if got, _ := versions[50].Get("c0"); versions[50].Len() != 50 || got != int64(0) {
			t.Fatalf("earlier version changed: %d objects, c0 = %v", versions[50].Len(), got)
		}
	}
}

// FuzzKeyedState feeds arbitrary bytes to the keyed snapshot decoder over a
// strict inner decoder (Counter: 8 bytes) and a permissive one (Register:
// any bytes, so every well-framed input decodes and the fuzzer explores
// the framing). Properties: it never panics, and input is either rejected
// or re-encodes to the same bytes and holds the same objects in ascending
// order. Before fuzzing it replays the golden histories.
func FuzzKeyedState(f *testing.F) {
	checkKeyedGolden(f)
	for _, g := range keyedGolden[:3] {
		k := NewKeyed(Counter{})
		rng := rand.New(rand.NewSource(g.seed))
		st := k.Initial()
		for i := 0; i < 40; i++ {
			st, _ = k.Apply(st, keyedHistoryOp(rng, k, 8))
		}
		enc, _ := k.EncodeState(st)
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})                 // truncated varint
	f.Add([]byte{1, 'b', 0, 1, 'a', 0}) // keys out of order
	f.Add([]byte{1, 'a', 0, 1, 'a', 0}) // duplicate key
	f.Add([]byte{0x81, 0x00, 'a', 0})   // padded length
	f.Add(append([]byte{1, 'k', 8}, make([]byte, 8)...))

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, k := range []Keyed{NewKeyed(Counter{}), NewKeyed(Register{})} {
			st, err := k.DecodeState(b)
			if err != nil {
				continue
			}
			enc, err := k.EncodeState(st)
			if err != nil {
				t.Fatalf("%s: decoded % x but cannot re-encode: %v", k.Name(), b, err)
			}
			if string(enc) != string(b) {
				t.Fatalf("%s: decoded % x re-encodes as % x", k.Name(), b, enc)
			}
			ks := st.(KeyedState)
			n, prev := 0, ""
			for key := range ks.All() {
				if _, ok := ks.Get(key); !ok || (n > 0 && key <= prev) {
					t.Fatalf("%s: decoded % x: key %q missing or out of order", k.Name(), b, key)
				}
				n, prev = n+1, key
			}
			if n != ks.Len() {
				t.Fatalf("%s: decoded % x: walk saw %d objects, Len %d", k.Name(), b, n, ks.Len())
			}
		}
	})
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
