package dtype

import (
	"iter"
	"math/bits"
	"slices"
	"strings"
)

// pmap is an immutable persistent map from string keys to values of type
// V: a hash array mapped trie (Bagwell, "Ideal Hash Trees", 2001) with path
// copying. With and Without return a new map that shares every node off
// the path to the changed key, so a write allocates O(log₃₂ n) small nodes
// however many keys the map holds, a read allocates nothing, and every
// earlier version stays intact — a replica keeps one state per memoized or
// cached position. It is the one trie behind KeyedState (object name →
// inner state), DirState (name → attribute set), SetState (member → {}) and
// BankState (account → balance). The zero value is the empty map.
type pmap[V any] struct {
	root *pnode[V] // nil when empty
}

// pnode is one trie node. At shift s it indexes keys by hash bits
// [s, s+5): an entry sits in the node itself (dataMap) until a second key
// claims its slot, and then both move to a child (nodeMap). Past the last
// level (shift ≥ 32) the keys of a node share their whole hash, and the
// node is a collision bucket whose entries are searched in turn. Without
// keeps the trie canonical: a subtree of one entry is always a single node,
// and a parent holds such an entry itself rather than the child.
type pnode[V any] struct {
	dataMap, nodeMap uint32
	size             int         // entries in this subtree
	entries          []pentry[V] // in slot order; a bucket's in insertion order
	children         []*pnode[V] // in slot order
}

type pentry[V any] struct {
	key string
	val V
}

const trieBits = 5 // hash bits per trie level: 32-way nodes

// keyedHash hashes keys for the trie: 32-bit FNV-1a, folded so the low
// bits the first levels index depend on every input bit. It is a variable
// only so tests can force collisions.
var keyedHash = func(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h ^ h>>16
}

// Len returns the number of keys.
func (m pmap[V]) Len() int {
	if m.root == nil {
		return 0
	}
	return m.root.size
}

// Get returns the value bound to key and whether key is bound.
func (m pmap[V]) Get(key string) (V, bool) {
	h := keyedHash(key)
	n := m.root
	for shift := uint(0); n != nil; shift += trieBits {
		if shift >= 32 {
			for _, e := range n.entries {
				if e.key == key {
					return e.val, true
				}
			}
			break
		}
		bit := uint32(1) << (h >> shift & 31)
		if n.dataMap&bit != 0 {
			if e := n.entries[slotOf(n.dataMap, bit)]; e.key == key {
				return e.val, true
			}
			break
		}
		if n.nodeMap&bit == 0 {
			break
		}
		n = n.children[slotOf(n.nodeMap, bit)]
	}
	var zero V
	return zero, false
}

// With returns the map with key bound to val. m itself is unchanged.
func (m pmap[V]) With(key string, val V) pmap[V] {
	return pmap[V]{root: m.root.with(0, keyedHash(key), pentry[V]{key: key, val: val})}
}

// Without returns the map with key unbound, or m itself if key is not
// bound. m itself is unchanged.
func (m pmap[V]) Without(key string) pmap[V] {
	root, removed := m.root.without(0, keyedHash(key), key)
	if !removed {
		return m
	}
	return pmap[V]{root: root}
}

// All iterates over the map in ascending key order: the order of the
// canonical encodings, and the order fmt prints a map's keys in.
func (m pmap[V]) All() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		entries := m.root.appendEntries(make([]pentry[V], 0, m.Len()))
		slices.SortFunc(entries, func(a, b pentry[V]) int { return strings.Compare(a.key, b.key) })
		for _, e := range entries {
			if !yield(e.key, e.val) {
				return
			}
		}
	}
}

// slotOf is the index, among the set bits of bitmap, of bit.
func slotOf(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

// with returns a copy of the subtree n (at shift) with e bound, copying only
// the nodes on e's path.
func (n *pnode[V]) with(shift uint, h uint32, e pentry[V]) *pnode[V] {
	if n == nil {
		return &pnode[V]{dataMap: 1 << (h & 31), size: 1, entries: []pentry[V]{e}}
	}
	out := *n
	if shift >= 32 {
		for i, old := range n.entries {
			if old.key == e.key {
				out.entries = replacedAt(n.entries, i, e)
				return &out
			}
		}
		out.entries = insertedAt(n.entries, len(n.entries), e)
		out.size++
		return &out
	}
	bit := uint32(1) << (h >> shift & 31)
	switch {
	case n.dataMap&bit != 0:
		i := slotOf(n.dataMap, bit)
		old := n.entries[i]
		if old.key == e.key {
			out.entries = replacedAt(n.entries, i, e)
			return &out
		}
		// A second key claims the slot: both move one level down.
		child := pair(shift+trieBits, keyedHash(old.key), old, h, e)
		out.dataMap &^= bit
		out.entries = removedAt(n.entries, i)
		out.nodeMap |= bit
		out.children = insertedAt(n.children, slotOf(out.nodeMap, bit), child)
	case n.nodeMap&bit != 0:
		i := slotOf(n.nodeMap, bit)
		child := n.children[i].with(shift+trieBits, h, e)
		out.children = replacedAt(n.children, i, child)
		out.size += child.size - n.children[i].size
		return &out
	default:
		out.dataMap |= bit
		out.entries = insertedAt(n.entries, slotOf(out.dataMap, bit), e)
	}
	out.size++
	return &out
}

// without returns a copy of the subtree n (at shift) with key unbound, nil
// if that leaves it empty, and whether key was bound at all (if not, n is
// returned as is). Only the nodes on key's path are copied, and a child
// left with one entry is folded into its parent.
func (n *pnode[V]) without(shift uint, h uint32, key string) (*pnode[V], bool) {
	if n == nil {
		return nil, false
	}
	if shift >= 32 {
		for i, e := range n.entries {
			if e.key == key { // a bucket holds two entries or more
				out := *n
				out.entries = removedAt(n.entries, i)
				out.size--
				return &out, true
			}
		}
		return n, false
	}
	bit := uint32(1) << (h >> shift & 31)
	switch {
	case n.dataMap&bit != 0:
		i := slotOf(n.dataMap, bit)
		if n.entries[i].key != key {
			return n, false
		}
		if n.size == 1 {
			return nil, true
		}
		out := *n
		out.dataMap &^= bit
		out.entries = removedAt(n.entries, i)
		out.size--
		return &out, true
	case n.nodeMap&bit != 0:
		i := slotOf(n.nodeMap, bit)
		child, removed := n.children[i].without(shift+trieBits, h, key)
		if !removed {
			return n, false
		}
		out := *n
		out.size--
		if child.size == 1 {
			// The child holds one entry: the parent takes it in the
			// child's slot, which is that entry's slot at this level.
			out.nodeMap &^= bit
			out.children = removedAt(n.children, i)
			out.dataMap |= bit
			out.entries = insertedAt(n.entries, slotOf(out.dataMap, bit), child.entries[0])
		} else {
			out.children = replacedAt(n.children, i, child)
		}
		return &out, true
	}
	return n, false
}

// pair builds the subtree, at shift, of two entries with distinct keys.
func pair[V any](shift uint, h1 uint32, e1 pentry[V], h2 uint32, e2 pentry[V]) *pnode[V] {
	if shift >= 32 {
		return &pnode[V]{size: 2, entries: []pentry[V]{e1, e2}}
	}
	b1, b2 := h1>>shift&31, h2>>shift&31
	if b1 == b2 {
		return &pnode[V]{nodeMap: 1 << b1, size: 2, children: []*pnode[V]{pair(shift+trieBits, h1, e1, h2, e2)}}
	}
	if b1 > b2 {
		e1, e2 = e2, e1
	}
	return &pnode[V]{dataMap: 1<<b1 | 1<<b2, size: 2, entries: []pentry[V]{e1, e2}}
}

func (n *pnode[V]) appendEntries(out []pentry[V]) []pentry[V] {
	if n == nil {
		return out
	}
	out = append(out, n.entries...)
	for _, c := range n.children {
		out = c.appendEntries(out)
	}
	return out
}

// replacedAt, insertedAt and removedAt return exactly sized copies of s
// with one element replaced, inserted or removed; s is never written.
func replacedAt[T any](s []T, i int, x T) []T {
	out := make([]T, len(s))
	copy(out, s)
	out[i] = x
	return out
}

func insertedAt[T any](s []T, i int, x T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

func removedAt[T any](s []T, i int) []T {
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
