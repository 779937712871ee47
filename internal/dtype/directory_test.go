package dtype

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestDirectoryHostileFieldsCannotCorruptState reproduces the two failures
// of the string-encoded state: a bound name containing "\x01" made the NEXT
// Apply on that state panic (on every replica, under the replica mutex),
// and an attribute key containing "=" was stored and then read back as "".
func TestDirectoryHostileFieldsCannotCorruptState(t *testing.T) {
	var d Directory
	poisoned, _ := d.Apply(d.Initial(), DirBind{Name: "x\x01y"})
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Apply after binding a name with a separator panicked: %v", p)
			}
		}()
		d.Apply(poisoned, DirLookup{Name: "z"})
	}()

	base, _ := d.Apply(d.Initial(), DirBind{Name: "n"})
	st, v := d.Apply(base, DirSetAttr{Name: "n", Key: "a=b", Val: "v"})
	_, got := d.Apply(st, DirGetAttr{Name: "n", Key: "a=b"})
	if v == "ok" && got != "v" {
		t.Fatalf("setattr(n.a=b=v) reported ok but getattr(n.a=b) = %q", got)
	}
	if v != "ok" && fmt.Sprint(st) != fmt.Sprint(base) {
		t.Fatalf("refused setattr changed the state: %v -> %v", base, st)
	}
}

// TestDirectoryRefusesSeparatorFields: a name, key or value the canonical
// encoding cannot carry is refused with DirInvalid and leaves the state
// unchanged, on every operator that carries one.
func TestDirectoryRefusesSeparatorFields(t *testing.T) {
	var d Directory
	base, _ := d.Apply(d.Initial(), DirBind{Name: "n"})
	refused := []Operator{
		DirBind{Name: "x\x01y"}, DirBind{Name: "x\x00y"}, DirBind{Name: "x\x02y"},
		DirUnbind{Name: "n\x00"},
		DirSetAttr{Name: "n", Key: "a=b", Val: "v"},
		DirSetAttr{Name: "n", Key: "k\x02", Val: "v"},
		DirSetAttr{Name: "n", Key: "k", Val: "v\x01"},
		DirSetAttr{Name: "n\x02", Key: "k", Val: "v"},
		DirGetAttr{Name: "n", Key: "a=b"},
		DirLookup{Name: "n\x01"},
	}
	for _, op := range refused {
		st, v := d.Apply(base, op)
		if v != DirInvalid {
			t.Errorf("%#v: value %v, want %q", op, v, DirInvalid)
		}
		if fmt.Sprint(st) != fmt.Sprint(base) {
			t.Errorf("%#v changed the state: %v -> %v", op, base, st)
		}
		// The state stays usable: every later operator still applies.
		if _, v := d.Apply(st, DirLookup{Name: "n"}); v != true {
			t.Errorf("after %#v: lookup(n) = %v", op, v)
		}
	}

	// A value may contain '=' (the key ends at the first one), and the
	// key it was set under reads it back.
	st, _ := d.Apply(base, DirSetAttr{Name: "n", Key: "k", Val: "a=b"})
	if _, v := d.Apply(st, DirGetAttr{Name: "n", Key: "k"}); v != "a=b" {
		t.Fatalf("getattr(n.k) = %v, want a=b", v)
	}
}

// TestDirectoryReadsDoNotAllocate pins the read paths of the structured
// states: a Directory, Set or Bank read is a walk down one trie path, a
// Log's length is its slice's, and none of them re-boxes the state, so a
// read allocates at most the boxing of the value it returns.
func TestDirectoryReadsDoNotAllocate(t *testing.T) {
	var d Directory
	dir := dirFixture(64, 4)
	var adds, deposits, appends []Operator
	for i := 0; i < 64; i++ {
		adds = append(adds, SetAdd{Elem: fmt.Sprintf("e%02d", i)})
		appends = append(appends, LogAppend{Entry: fmt.Sprintf("e%02d", i)})
		deposits = append(deposits, BankDeposit{Account: fmt.Sprintf("a%02d", i), Amount: int64(1000 + i)})
	}
	set := ApplyAll(Set{}, Set{}.Initial(), adds)
	bank := ApplyAll(Bank{}, Bank{}.Initial(), deposits)
	log := ApplyAll(Log{}, Log{}.Initial(), appends)
	for _, tc := range []struct {
		dt    DataType
		st    State
		op    Operator
		allow float64 // the value's box, if it needs one
	}{
		{d, dir, DirLookup{Name: "n31"}, 0},
		{d, dir, DirLookup{Name: "absent"}, 0},
		{d, dir, DirGetAttr{Name: "n31", Key: "k2"}, 1},
		{d, dir, DirBind{Name: "n31"}, 0},
		{Set{}, set, SetContains{Elem: "e31"}, 0},
		{Set{}, set, SetContains{Elem: "absent"}, 0},
		{Set{}, set, SetAdd{Elem: "e63"}, 0},
		{Set{}, set, SetSize{}, 1},
		{Bank{}, bank, BankBalance{Account: "a31"}, 1},
		{Bank{}, bank, BankBalance{Account: "absent"}, 1},
		{Bank{}, bank, BankWithdraw{Account: "a31", Amount: 1 << 40}, 0},
		{Log{}, log, LogLen{}, 0},
	} {
		if n := testing.AllocsPerRun(100, func() { tc.dt.Apply(tc.st, tc.op) }); n > tc.allow {
			t.Errorf("%s %v allocates %.0f times, want at most %.0f", tc.dt.Name(), tc.op, n, tc.allow)
		}
	}
	if _, v := (Set{}).Apply(set, SetSize{}); v != 64 {
		t.Fatalf("size = %v, want 64", v)
	}
	if _, v := (Bank{}).Apply(bank, BankBalance{Account: "a31"}); v != int64(1031) {
		t.Fatalf("balance(a31) = %v, want 1031", v)
	}
	next, _ := d.Apply(dir, DirSetAttr{Name: "n31", Key: "k2", Val: "new"})
	if _, v := d.Apply(dir, DirGetAttr{Name: "n31", Key: "k2"}); v != "v31.2" {
		t.Fatalf("setattr mutated its input state: getattr = %v", v)
	}
	if _, v := d.Apply(next, DirGetAttr{Name: "n31", Key: "k2"}); v != "new" {
		t.Fatalf("getattr after setattr = %v", v)
	}
}

// TestDirectoryWriteCostDoesNotGrowWithNames: a Bind, SetAttr or Unbind
// copies one trie path and one attribute set, and a Bank deposit or a Set
// remove and add copies one trie path, so the bytes a write allocates grow
// with the trie's depth (log₃₂ of the name count), not with the name
// count. Over 4 096 names (accounts, members) a write may allocate at most
// twice what it does over 64; an entry array or joined string copied whole
// would allocate about 64 times as much. A deposit copies nothing but trie
// nodes of 24-byte entries, so the third level a path gains past 1 024
// keys shows more: it may allocate 2.5 times as much (2.2 measured). Each
// figure is the mean over 64 names, so no one name's place in the trie
// decides it.
func TestDirectoryWriteCostDoesNotGrowWithNames(t *testing.T) {
	var (
		d    Directory
		bank Bank
		set  Set
	)
	var sets, binds, unbinds, deposits, removes, adds []Operator
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("n%02d", i)
		sets = append(sets, DirSetAttr{Name: name, Key: "k2", Val: "new"})
		binds = append(binds, DirBind{Name: fmt.Sprintf("x%02d", i)})
		unbinds = append(unbinds, DirUnbind{Name: fmt.Sprintf("x%02d", i)})
		deposits = append(deposits, BankDeposit{Account: name, Amount: 1})
		removes = append(removes, SetRemove{Elem: name})
		adds = append(adds, SetAdd{Elem: name})
	}
	kinds := []struct {
		name  string
		bound float64
	}{{"setattr", 2}, {"bind+unbind", 2}, {"bank deposit", 2.5}, {"set remove+add", 2}}
	costAt := func(names int) []float64 {
		dir := dirFixture(names, 4)
		accounts, members := bank.Initial(), set.Initial()
		for i := 0; i < names; i++ {
			accounts, _ = bank.Apply(accounts, BankDeposit{Account: fmt.Sprintf("n%02d", i), Amount: 1})
			members, _ = set.Apply(members, SetAdd{Elem: fmt.Sprintf("n%02d", i)})
		}
		writes := []func(i int){
			func(i int) { d.Apply(dir, sets[i]) },
			func(i int) {
				bound, _ := d.Apply(dir, binds[i])
				d.Apply(bound, unbinds[i])
			},
			func(i int) { bank.Apply(accounts, deposits[i]) },
			func(i int) {
				removed, _ := set.Apply(members, removes[i])
				set.Apply(removed, adds[i])
			},
		}
		costs := make([]float64, len(writes))
		for k, write := range writes {
			costs[k] = allocBytesPerRun(20, func() {
				for i := 0; i < 64; i++ {
					write(i)
				}
			}) / 64
		}
		return costs
	}
	small, large := costAt(64), costAt(4096)
	for k, kind := range kinds {
		t.Logf("bytes per %s, 64 → 4 096 names: %.0f → %.0f", kind.name, small[k], large[k])
		if large[k] > kind.bound*small[k] {
			t.Errorf("a %s over 4 096 names allocates more than %g times what it does over 64", kind.name, kind.bound)
		}
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs after one warm-up call.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// dirModelOp draws an operator of a model history: over 8 names and 3
// keys, so names are unbound and bound again and attributes overwritten.
func dirModelOp(rng *rand.Rand) Operator {
	name := fmt.Sprintf("m%d", rng.Intn(8))
	key := fmt.Sprintf("k%d", rng.Intn(3))
	switch rng.Intn(6) {
	case 0:
		return DirBind{Name: name}
	case 1:
		return DirUnbind{Name: name}
	case 2:
		return DirSetAttr{Name: name, Key: key, Val: fmt.Sprintf("v%d", rng.Intn(4))}
	case 3:
		return DirGetAttr{Name: name, Key: key}
	case 4:
		return DirLookup{Name: name}
	default:
		return DirList{}
	}
}

// dirModel is the map a DirState is checked against: name → key → value.
type dirModel map[string]map[string]string

// apply applies op to a copy of m and returns it with op's value.
func (m dirModel) apply(op Operator) (dirModel, Value) {
	out := make(dirModel, len(m))
	for name, attrs := range m {
		out[name] = attrs
	}
	switch o := op.(type) {
	case DirBind:
		if _, ok := out[o.Name]; !ok {
			out[o.Name] = map[string]string{}
		}
		return out, "ok"
	case DirUnbind:
		delete(out, o.Name)
		return out, "ok"
	case DirSetAttr:
		attrs, ok := out[o.Name]
		if !ok {
			return out, "no-such-name"
		}
		next := map[string]string{o.Key: o.Val}
		for k, v := range attrs {
			if k != o.Key {
				next[k] = v
			}
		}
		out[o.Name] = next
		return out, "ok"
	case DirGetAttr:
		return out, out[o.Name][o.Key]
	case DirLookup:
		_, ok := out[o.Name]
		return out, ok
	default:
		return out, m.names()
	}
}

func (m dirModel) names() []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// encoding is the canonical encoding of m, built without DirState.
func (m dirModel) encoding() string {
	var parts []string
	for _, name := range m.names() {
		var kvs []string
		for k, v := range m[name] {
			kvs = append(kvs, k+"="+v)
		}
		sort.Strings(kvs)
		parts = append(parts, name+"\x01"+strings.Join(kvs, "\x02"))
	}
	return strings.Join(parts, "\x00")
}

// checkDirTrie checks a name trie's shape: every node's size counts its
// subtree, and no node below the root holds fewer than two entries (a
// delete folds such a node into its parent).
func checkDirTrie(t *testing.T, n *pnode[dirAttrs], root bool) int {
	t.Helper()
	if n == nil {
		return 0
	}
	size := len(n.entries)
	for _, c := range n.children {
		size += checkDirTrie(t, c, false)
	}
	if size != n.size || (!root && size < 2) {
		t.Fatalf("trie node holds %d entries, size %d (root %v)", size, n.size, root)
	}
	return size
}

// TestDirStateMatchesMapModel runs random histories of every Directory
// operator over a few names against a map model: every value, the
// encoding and the trie's shape must agree after every operator, every
// earlier state must still read, list and encode as the model did at its
// step (persistence), and encode → decode → encode is the identity on
// every state reached. The real hash puts the 8 names in 8 of the root's
// slots, so the history also runs with every name on one hash (one
// collision bucket), on four hashes (buckets of two) and with the root cut
// to four slots (pairs split one level down): deletes inside a bucket and
// the folding of a node left with one entry are covered.
func TestDirStateMatchesMapModel(t *testing.T) {
	fnv := keyedHash
	t.Cleanup(func() { keyedHash = fnv })
	var d Directory
	for hi, hash := range []func(string) uint32{
		fnv,
		func(string) uint32 { return 0x9e3779b9 },
		func(key string) uint32 { return fnv(key) & 0x00c00003 },
		func(key string) uint32 { return fnv(key) &^ 0x1c },
	} {
		keyedHash = hash
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			type step struct {
				st    State
				model dirModel
				enc   string
			}
			var steps []step
			st, model := d.Initial(), dirModel{}
			for i := 0; i < 200; i++ {
				op := dirModelOp(rng)
				var got, want Value
				st, got = d.Apply(st, op)
				model, want = model.apply(op)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("hash %d seed %d op %d (%v): value %v, model %v", hi, seed, i, op, got, want)
				}
				ds := st.(DirState)
				checkDirTrie(t, ds.names.root, true)
				enc, err := d.EncodeState(st)
				if err != nil {
					t.Fatal(err)
				}
				if string(enc) != model.encoding() || ds.names.Len() != len(model) {
					t.Fatalf("hash %d seed %d op %d (%v): state %q (%d names), model %q", hi, seed, i, op, enc, ds.names.Len(), model.encoding())
				}
				decoded, err := d.DecodeState(enc)
				if err != nil {
					t.Fatalf("hash %d seed %d op %d: decode %q: %v", hi, seed, i, enc, err)
				}
				if again, _ := d.EncodeState(decoded); string(again) != string(enc) {
					t.Fatalf("hash %d seed %d op %d: %q decodes and re-encodes as %q", hi, seed, i, enc, again)
				}
				steps = append(steps, step{st, model, string(enc)})
				for j, s := range steps {
					checkDirReads(t, s.st, s.model, s.enc)
					if t.Failed() {
						t.Fatalf("hash %d seed %d: the state of op %d changed after op %d", hi, seed, j, i)
					}
				}
			}
		}
	}
}

// checkDirReads checks that st reads, lists and encodes as model did.
func checkDirReads(t *testing.T, st State, model dirModel, enc string) {
	t.Helper()
	var d Directory
	if got, _ := d.EncodeState(st); string(got) != enc {
		t.Errorf("encoding %q, want %q", got, enc)
	}
	if _, v := d.Apply(st, DirList{}); fmt.Sprint(v) != fmt.Sprint(model.names()) {
		t.Errorf("list = %v, want %v", v, model.names())
	}
	for _, name := range []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"} {
		_, attrs := model[name]
		if _, v := d.Apply(st, DirLookup{Name: name}); v != attrs {
			t.Errorf("lookup(%s) = %v, want %v", name, v, attrs)
		}
		for _, key := range []string{"k0", "k1", "k2"} {
			if _, v := d.Apply(st, DirGetAttr{Name: name, Key: key}); v != model[name][key] {
				t.Errorf("getattr(%s.%s) = %v, want %q", name, key, v, model[name][key])
			}
		}
	}
}

// dirFixture builds a directory of names n00…, each with keys k0… set.
func dirFixture(names, keys int) State {
	var d Directory
	st := d.Initial()
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("n%02d", i)
		st, _ = d.Apply(st, DirBind{Name: name})
		for k := 0; k < keys; k++ {
			st, _ = d.Apply(st, DirSetAttr{Name: name, Key: fmt.Sprintf("k%d", k), Val: fmt.Sprintf("v%d.%d", i, k)})
		}
	}
	return st
}

// dirGolden are RandomOp histories of 60 Directory operators (seed i) with
// their final encoding, printed state, and the SHA-256 of every
// intermediate encoding, each followed by 0xff — all recorded from the
// string-encoded state the structured one replaced. Byte-identical
// encodings keep range catch-up between mixed versions installable.
var dirGolden = []struct {
	seed       int64
	enc, str   string
	cutsSHA256 string
}{
	{0, "n0\x01\x00n2\x01k1=v0", "dir[n0\x01 n2\x01k1=v0]", "c36f1aae1e4c956b619163717465f071f561d17caf1bb7b78685d8b307917518"},
	{1, "", "dir[]", "2e3442ce8ec5183eb02e40b43bfe2b667fd4cdb60bbb81cc2261061967cc22c6"},
	{2, "n0\x01k0=v0\x00n1\x01k0=v2", "dir[n0\x01k0=v0 n1\x01k0=v2]", "babb6b3f5a202933cbf917eaf474fea1d3956588e3ad12cd5c207c6b510ecf9d"},
	{3, "n2\x01", "dir[n2\x01]", "40e8226541541d22d5c3b95da504b6a2723fe99e10b63bfb4916eb329d9c66d8"},
	{4, "n1\x01k0=v1\x00n2\x01k0=v2", "dir[n1\x01k0=v1 n2\x01k0=v2]", "2ffdfdade780345406647c695265187c7b0fae2327c8c8161a3ef7fc085edf86"},
	{5, "n0\x01k0=v0\x02k1=v2\x00n2\x01k0=v1", "dir[n0\x01k0=v0\x02k1=v2 n2\x01k0=v1]", "6ae8290dd6fc0af4c780aba6e3699efa574b5f4c9bf0c3f02a128c83e4660825"},
	{6, "", "dir[]", "6a3524f41427bd49b795c803ca27c75d9ac781407383cfcd10020fdd77a7277b"},
	{7, "n0\x01", "dir[n0\x01]", "cab0ae0af88a5d820777edc5d9c8b099db2e27446ece5d659321ffe5fb27fd74"},
}

// FuzzDirectoryState feeds arbitrary bytes to the Directory snapshot
// decoder. Properties: it never panics; input is either rejected, or it
// re-encodes to the same bytes and prints in the canonical format
// ("dir[" + the encoding with "\x00" shown as " " + "]"), and the decoded
// state behaves like one Apply built (every operator applies to it). The
// seeds are encodings recorded from the string-encoded state: an empty
// directory, several names with attributes (a value with '=', an empty
// key), names out of order, an attribute without '='. Before fuzzing it
// replays the golden RandomOp histories and requires byte-identical
// encodings at every step.
func FuzzDirectoryState(f *testing.F) {
	var d Directory
	for _, g := range dirGolden {
		rng := rand.New(rand.NewSource(g.seed))
		st := d.Initial()
		h := sha256.New()
		for i := 0; i < 60; i++ {
			st, _ = d.Apply(st, RandomOp(rng, d))
			enc, err := d.EncodeState(st)
			if err != nil {
				f.Fatalf("seed %d op %d: encode: %v", g.seed, i, err)
			}
			h.Write(enc)
			h.Write([]byte{0xff})
		}
		enc, _ := d.EncodeState(st)
		if string(enc) != g.enc || fmt.Sprint(st) != g.str || fmt.Sprintf("%x", h.Sum(nil)) != g.cutsSHA256 {
			f.Fatalf("seed %d: encoding %q / %q (cuts %x) differs from golden %q / %q (cuts %s)",
				g.seed, enc, fmt.Sprint(st), h.Sum(nil), g.enc, g.str, g.cutsSHA256)
		}
		f.Add(enc)
	}
	f.Add([]byte(""))
	f.Add([]byte("alpha\x01k1=v1\x02k2=v=2\x00beta\x01x=y\x00gamma\x01="))
	f.Add([]byte("b\x01\x00a\x01"))  // names out of order
	f.Add([]byte("n\x01kv"))         // attribute without '='
	f.Add([]byte("a\x01\x00a\x01"))  // duplicate name
	f.Add([]byte("n\x01k=1\x02k=2")) // duplicate key
	f.Add([]byte("plain"))           // no separator

	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := d.DecodeState(b)
		if err != nil {
			return
		}
		enc, err := d.EncodeState(st)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-encode: %v", b, err)
		}
		if string(enc) != string(b) {
			t.Fatalf("decoded %q re-encodes as %q", b, enc)
		}
		if want := "dir[" + strings.ReplaceAll(string(b), "\x00", " ") + "]"; fmt.Sprint(st) != want {
			t.Fatalf("decoded %q prints %q, want %q", b, fmt.Sprint(st), want)
		}
		ds := st.(DirState)
		for _, name := range ds.Names() {
			next, _ := d.Apply(st, DirSetAttr{Name: name, Key: "fz", Val: "1"})
			if _, v := d.Apply(next, DirGetAttr{Name: name, Key: "fz"}); v != "1" {
				t.Fatalf("decoded %q: name %q does not hold an attribute", b, name)
			}
			d.Apply(st, DirUnbind{Name: name})
		}
	})
}
