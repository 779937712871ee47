package dtype

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
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

// TestDirectoryReadsDoNotAllocate pins the structured state's point: a
// lookup is a binary search over the sorted entries, and an attribute read
// allocates at most the boxing of the string it returns.
func TestDirectoryReadsDoNotAllocate(t *testing.T) {
	var d Directory
	st := dirFixture(64, 4)
	var lookup, getattr Operator = DirLookup{Name: "n31"}, DirGetAttr{Name: "n31", Key: "k2"}
	if n := testing.AllocsPerRun(100, func() { d.Apply(st, lookup) }); n != 0 {
		t.Errorf("lookup allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Apply(st, getattr) }); n > 1 {
		t.Errorf("getattr allocates %.0f times, want at most the value's box", n)
	}
	next, _ := d.Apply(st, DirSetAttr{Name: "n31", Key: "k2", Val: "new"})
	if _, v := d.Apply(st, DirGetAttr{Name: "n31", Key: "k2"}); v != "v31.2" {
		t.Fatalf("setattr mutated its input state: getattr = %v", v)
	}
	if _, v := d.Apply(next, DirGetAttr{Name: "n31", Key: "k2"}); v != "new" {
		t.Fatalf("getattr after setattr = %v", v)
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
