package dtype

import (
	"fmt"
	"strings"
)

// Directory is a name service data type in the style of §11.2: a mapping
// from names to attribute sets. It is the paper's motivating application —
// lookups dominate, updates tolerate lazy propagation, and attribute
// initialization depends (via prev sets) on name creation.
//
// Names, keys and values may not contain the bytes "\x00", "\x01" or
// "\x02" (the separators of the canonical encoding), and keys may not
// contain "=". An operator carrying such a field is refused: it leaves the
// state unchanged and reports DirInvalid — deterministically, so every
// replica agrees, and without ever building a state the encoding could not
// represent.
type Directory struct{}

var (
	_ DataType         = Directory{}
	_ Commuter         = Directory{}
	_ ObliviousChecker = Directory{}
	_ ReadOnlyChecker  = Directory{}
)

// DirInvalid is the reportable value of a Directory operator refused for a
// name, key or value the encoding cannot carry (see Directory).
const DirInvalid = "invalid"

// DirBind creates the name object (with no attributes). Binding an existing
// name is a no-op. Value: "ok".
type DirBind struct{ Name string }

// DirUnbind removes the name and its attributes. Value: "ok".
type DirUnbind struct{ Name string }

// DirSetAttr sets attribute Key of Name to Val. Setting an attribute of an
// unbound name reports "no-such-name" and leaves the state unchanged —
// which is why clients order DirSetAttr after DirBind via prev sets.
type DirSetAttr struct{ Name, Key, Val string }

// DirGetAttr reads attribute Key of Name (value: the attribute value, or
// "" if the name or key is absent).
type DirGetAttr struct{ Name, Key string }

// DirLookup reports whether Name is bound (value: bool).
type DirLookup struct{ Name string }

// DirList returns the sorted list of bound names (value: []string).
type DirList struct{}

func (o DirBind) String() string    { return fmt.Sprintf("bind(%s)", o.Name) }
func (o DirUnbind) String() string  { return fmt.Sprintf("unbind(%s)", o.Name) }
func (o DirSetAttr) String() string { return fmt.Sprintf("setattr(%s.%s=%s)", o.Name, o.Key, o.Val) }
func (o DirGetAttr) String() string { return fmt.Sprintf("getattr(%s.%s)", o.Name, o.Key) }
func (o DirLookup) String() string  { return fmt.Sprintf("lookup(%s)", o.Name) }
func (DirList) String() string      { return "list" }

// DirState is the immutable state of a Directory: a persistent map (pmap)
// from each bound name to its attribute set. Apply never writes a trie node
// or attribute set it did not just allocate, so a replica can keep every
// intermediate state (the memoized prefix, the unstable-suffix cache) and
// successive states share structure: a read copies nothing, and a Bind,
// SetAttr or Unbind copies the O(log₃₂ n) trie nodes on one name's path
// plus, for SetAttr, that name's attribute set. The canonical string form
// ("name\x01k=v\x02k=v" entries joined by "\x00", names and keys sorted)
// exists only in EncodeState, DecodeState and String.
type DirState struct {
	names pmap[dirAttrs]
}

// dirAttrs is one name's attribute set: (key, value) pairs in ascending
// key order, never written once built; nil when empty.
type dirAttrs []dirAttr

type dirAttr struct{ key, val string }

// index returns the position of key in a — where it is, or where it would
// be inserted — and whether it is set. Attribute sets are small, so a scan
// beats a binary search.
func (a dirAttrs) index(key string) (int, bool) {
	for i, at := range a {
		if at.key >= key {
			return i, at.key == key
		}
	}
	return len(a), false
}

// String renders the canonical encoding with entries separated by spaces,
// so equal states print equally (the spec sweeps compare printed forms).
func (s DirState) String() string {
	var b strings.Builder
	b.WriteString("dir[")
	s.write(&b, ' ')
	b.WriteByte(']')
	return b.String()
}

// write renders the canonical encoding with entries separated by sep.
func (s DirState) write(b *strings.Builder, sep byte) {
	first := true
	for name, attrs := range s.names.All() {
		if !first {
			b.WriteByte(sep)
		}
		first = false
		b.WriteString(name)
		b.WriteByte('\x01')
		for j, a := range attrs {
			if j > 0 {
				b.WriteByte('\x02')
			}
			b.WriteString(a.key)
			b.WriteByte('=')
			b.WriteString(a.val)
		}
	}
}

// Bound reports whether name is bound in the state.
func (s DirState) Bound(name string) bool {
	_, ok := s.names.Get(name)
	return ok
}

// Attr returns the value of an attribute, or "" if absent.
func (s DirState) Attr(name, key string) string {
	attrs, _ := s.names.Get(name)
	if i, ok := attrs.index(key); ok {
		return attrs[i].val
	}
	return ""
}

// Names returns the sorted bound names.
func (s DirState) Names() []string {
	out := make([]string, 0, s.names.Len())
	for name := range s.names.All() {
		out = append(out, name)
	}
	return out
}

// dirField reports whether s can be a name, key (key set) or value: none
// of the encoding's separators, and no '=' in a key.
func dirField(s string, key bool) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= '\x02' || (key && c == '=') {
			return false
		}
	}
	return true
}

// Name implements DataType.
func (Directory) Name() string { return "directory" }

// Initial implements DataType.
func (Directory) Initial() State { return DirState{} }

// Apply implements DataType. Whenever the state does not change it returns
// s itself, so a read does not even re-box the state.
func (Directory) Apply(s State, op Operator) (State, Value) {
	cur, ok := s.(DirState)
	if !ok {
		panic(fmt.Sprintf("dtype: directory state has type %T, want DirState", s))
	}
	switch o := op.(type) {
	case DirBind:
		if !dirField(o.Name, false) {
			return s, DirInvalid
		}
		if cur.Bound(o.Name) {
			return s, "ok"
		}
		return DirState{names: cur.names.With(o.Name, nil)}, "ok"
	case DirUnbind:
		if !dirField(o.Name, false) {
			return s, DirInvalid
		}
		next := cur.names.Without(o.Name)
		if next.Len() == cur.names.Len() {
			return s, "ok"
		}
		return DirState{names: next}, "ok"
	case DirSetAttr:
		if !dirField(o.Name, false) || !dirField(o.Key, true) || !dirField(o.Val, false) {
			return s, DirInvalid
		}
		attrs, bound := cur.names.Get(o.Name)
		if !bound {
			return s, "no-such-name"
		}
		a := dirAttr{key: o.Key, val: o.Val}
		i, has := attrs.index(o.Key)
		switch {
		case !has:
			attrs = insertedAt(attrs, i, a)
		case attrs[i].val != o.Val:
			attrs = replacedAt(attrs, i, a)
		default:
			return s, "ok"
		}
		return DirState{names: cur.names.With(o.Name, attrs)}, "ok"
	case DirGetAttr:
		if !dirField(o.Name, false) || !dirField(o.Key, true) {
			return s, DirInvalid
		}
		return s, cur.Attr(o.Name, o.Key)
	case DirLookup:
		if !dirField(o.Name, false) {
			return s, DirInvalid
		}
		return s, cur.Bound(o.Name)
	case DirList:
		return s, cur.Names()
	default:
		panic(fmt.Sprintf("dtype: directory does not support operator %T", op))
	}
}

// ReadOnly implements ReadOnlyChecker: lookups, attribute reads and
// listings never change the state.
func (Directory) ReadOnly(op Operator) bool {
	switch op.(type) {
	case DirGetAttr, DirLookup, DirList:
		return true
	}
	return false
}

// Commute implements Commuter: operations on different names commute;
// queries commute with queries. On the same name, bind/bind and
// setattr/setattr-on-different-keys commute; unbind does not commute with
// any mutator of the same name; setattr does not commute with bind of the
// same name (setattr before bind is lost).
func (Directory) Commute(op1, op2 Operator) bool {
	n1, mut1 := dirMutTarget(op1)
	n2, mut2 := dirMutTarget(op2)
	if !mut1 || !mut2 {
		return true
	}
	if n1 != n2 {
		return true
	}
	switch a := op1.(type) {
	case DirBind:
		_, otherBind := op2.(DirBind)
		return otherBind
	case DirUnbind:
		_, otherUnbind := op2.(DirUnbind)
		return otherUnbind
	case DirSetAttr:
		b, otherSet := op2.(DirSetAttr)
		if !otherSet {
			return false
		}
		return a.Key != b.Key || a.Val == b.Val
	default:
		return false
	}
}

// Oblivious implements ObliviousChecker: a query is not oblivious to
// mutators of the name (or name set) it observes.
func (Directory) Oblivious(op1, op2 Operator) bool {
	n2, mut2 := dirMutTarget(op2)
	if !mut2 {
		return true
	}
	switch q := op1.(type) {
	case DirGetAttr:
		return q.Name != n2
	case DirLookup:
		return q.Name != n2
	case DirList:
		return false
	case DirSetAttr:
		// setattr's value ("ok" vs "no-such-name") depends on whether the
		// name is bound, so it is not oblivious to bind/unbind of its name.
		switch op2.(type) {
		case DirBind, DirUnbind:
			return q.Name != n2
		default:
			return true
		}
	default:
		return true
	}
}

func dirMutTarget(op Operator) (name string, isMutator bool) {
	switch o := op.(type) {
	case DirBind:
		return o.Name, true
	case DirUnbind:
		return o.Name, true
	case DirSetAttr:
		return o.Name, true
	default:
		return "", false
	}
}
