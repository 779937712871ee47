package dtype

import (
	"encoding/binary"
	"fmt"
	"iter"
	"strings"
)

// Snapshotter is an optional DataType extension: a canonical, portable byte
// encoding of object states. It exists for replica snapshots — the §9.3
// crash-recovery state transfer that makes recovery composable with §10.2
// pruning: once descriptors of memoized-stable operations are pruned at
// every replica, the only way a recovering replica can re-learn the prefix
// is by receiving its outcome state, and that state must cross process
// boundaries (gob cannot carry the concrete state types, whose canonical
// representations are unexported).
//
// Contract:
//   - EncodeState is deterministic: equal states yield equal bytes.
//   - DecodeState(EncodeState(s)) is behaviourally identical to s — every
//     operator applied to the round-tripped state yields the same post-state
//     and value as applied to s. internal/spec.CheckSnapshotInstallEquivalence
//     is the checkable form of this obligation.
//   - DecodeState validates its input and fails on garbage rather than
//     constructing an ill-formed state.
type Snapshotter interface {
	// EncodeState renders s in the type's canonical wire form.
	EncodeState(s State) ([]byte, error)
	// DecodeState parses the canonical wire form back into a state.
	DecodeState(data []byte) (State, error)
}

// CanSnapshot reports whether dt supports state snapshots end to end. For
// Keyed this recurses into the inner type (Keyed implements Snapshotter
// structurally, but encoding fails at runtime if the inner type cannot).
func CanSnapshot(dt DataType) bool {
	if k, ok := dt.(Keyed); ok {
		return CanSnapshot(k.Inner)
	}
	_, ok := dt.(Snapshotter)
	return ok
}

// --- Counter ---

// EncodeState implements Snapshotter: 8-byte big-endian two's-complement.
func (Counter) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(int64)
	if !ok {
		return nil, fmt.Errorf("dtype: counter snapshot of %T state", s)
	}
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(cur))
	return b, nil
}

// DecodeState implements Snapshotter.
func (Counter) DecodeState(data []byte) (State, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("dtype: counter snapshot of %d bytes, want 8", len(data))
	}
	return int64(binary.BigEndian.Uint64(data)), nil
}

// --- Register ---

// EncodeState implements Snapshotter: the register contents, verbatim.
func (Register) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(string)
	if !ok {
		return nil, fmt.Errorf("dtype: register snapshot of %T state", s)
	}
	return []byte(cur), nil
}

// DecodeState implements Snapshotter.
func (Register) DecodeState(data []byte) (State, error) {
	return string(data), nil
}

// --- The entry codec: Set, Log, Bank and Keyed ---

// encodeEntries returns a state's canonical encoding: for each key and
// value all yields, the key in wire form (AppendString), then what val
// appends for the value — nothing when val is nil. Set, Bank and Keyed
// states yield their keys ascending (pmap.All); a Log yields its entries
// in log order, with no value.
func encodeEntries[V any](all iter.Seq2[string, V], val func([]byte, V) ([]byte, error)) ([]byte, error) {
	var b []byte
	for key, v := range all {
		b = AppendString(b, key)
		if val != nil {
			var err error
			if b, err = val(b, v); err != nil {
				return nil, fmt.Errorf("entry %q: %w", key, err)
			}
		}
	}
	return b, nil
}

// readEntries reads an encoding encodeEntries wrote, up to the end of data:
// for each key it calls entry, which reads that key's value from r. Keys
// must be strictly ascending when ascending is set. Every varint must be
// minimal (WireReader), so bytes that decode re-encode identically. It
// returns the first violation, whether the framing's or one entry latched.
func readEntries(data []byte, ascending bool, entry func(key string, r *WireReader)) error {
	r := NewWireReader(data)
	for prev := ""; r.err == nil && r.pos < len(data); {
		start := r.pos
		key := r.Str()
		if ascending && start > 0 && key <= prev {
			r.Fail("key %q not above %q", key, prev)
		}
		if r.err == nil {
			entry(key, &r)
		}
		prev = key
	}
	return r.Err()
}

// EncodeState implements Snapshotter: each member, ascending.
func (Set) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(SetState)
	if !ok {
		return nil, fmt.Errorf("dtype: set snapshot of %T state", s)
	}
	return encodeEntries(cur.members.All(), nil)
}

// DecodeState implements Snapshotter. Members must be strictly ascending:
// sorted AND duplicate-free, or the decoded set would disagree with every
// honestly built one (e.g. on SetSize).
func (Set) DecodeState(data []byte) (State, error) {
	var out SetState
	if err := readEntries(data, true, func(elem string, _ *WireReader) {
		out.members = out.members.With(elem, struct{}{})
	}); err != nil {
		return nil, fmt.Errorf("dtype: set snapshot: %w", err)
	}
	return out, nil
}

// EncodeState implements Snapshotter: each entry, in log order.
func (Log) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(LogState)
	if !ok {
		return nil, fmt.Errorf("dtype: log snapshot of %T state", s)
	}
	return encodeEntries(func(yield func(string, struct{}) bool) {
		for _, e := range cur.entries {
			if !yield(e, struct{}{}) {
				return
			}
		}
	}, nil)
}

// DecodeState implements Snapshotter.
func (Log) DecodeState(data []byte) (State, error) {
	var out LogState
	if err := readEntries(data, false, func(entry string, _ *WireReader) {
		out.entries = append(out.entries, entry)
	}); err != nil {
		return nil, fmt.Errorf("dtype: log snapshot: %w", err)
	}
	return out, nil
}

// EncodeState implements Snapshotter: each account, ascending, followed by
// its balance as a zig-zag varint.
func (Bank) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(BankState)
	if !ok {
		return nil, fmt.Errorf("dtype: bank snapshot of %T state", s)
	}
	return encodeEntries(cur.accounts.All(), func(b []byte, bal int64) ([]byte, error) {
		return binary.AppendVarint(b, bal), nil
	})
}

// DecodeState implements Snapshotter. Accounts must be strictly ascending
// and no balance zero: Apply never binds a zero balance.
func (Bank) DecodeState(data []byte) (State, error) {
	var out BankState
	if err := readEntries(data, true, func(acct string, r *WireReader) {
		if bal := r.Varint(); bal != 0 {
			out.accounts = out.accounts.With(acct, bal)
		} else {
			r.Fail("account %q has a zero balance", acct)
		}
	}); err != nil {
		return nil, fmt.Errorf("dtype: bank snapshot: %w", err)
	}
	return out, nil
}

// --- Directory ---

// EncodeState implements Snapshotter: the canonical entry encoding,
// "name\x01k=v\x02k=v" per bound name, joined by "\x00", names and keys
// ascending.
func (Directory) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(DirState)
	if !ok {
		return nil, fmt.Errorf("dtype: directory snapshot of %T state", s)
	}
	var b strings.Builder
	cur.write(&b, '\x00')
	return []byte(b.String()), nil
}

// DecodeState implements Snapshotter. It accepts exactly the encodings
// EncodeState produces for states Apply can build: names strictly
// ascending, every attribute a "k=v" with keys strictly ascending, and no
// separator byte inside a name, key or value.
func (Directory) DecodeState(data []byte) (State, error) {
	if len(data) == 0 {
		return DirState{}, nil
	}
	var out DirState
	prevName := ""
	for _, part := range strings.Split(string(data), "\x00") {
		name, kvs, ok := strings.Cut(part, "\x01")
		if !ok || !dirField(name, false) || strings.IndexByte(kvs, '\x01') >= 0 {
			return nil, fmt.Errorf("dtype: directory snapshot entry %q malformed", part)
		}
		if out.names.Len() > 0 && name <= prevName {
			return nil, fmt.Errorf("dtype: directory snapshot not in canonical form")
		}
		var attrs dirAttrs
		if kvs != "" {
			for _, kv := range strings.Split(kvs, "\x02") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("dtype: directory snapshot attribute %q lacks '='", kv)
				}
				if n := len(attrs); n > 0 && k <= attrs[n-1].key {
					return nil, fmt.Errorf("dtype: directory snapshot not in canonical form")
				}
				attrs = append(attrs, dirAttr{key: k, val: v})
			}
		}
		out.names = out.names.With(name, attrs)
		prevName = name
	}
	return out, nil
}

// --- Keyed ---

// EncodeState implements Snapshotter for the keyed lift: each object's key,
// ascending, followed by its inner encoding, length-prefixed with a
// uvarint. The inner type must itself implement Snapshotter.
func (k Keyed) EncodeState(s State) ([]byte, error) {
	sn, ok := k.Inner.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("dtype: keyed inner type %s has no snapshot encoding", k.Inner.Name())
	}
	cur, ok := s.(KeyedState)
	if !ok {
		return nil, fmt.Errorf("dtype: keyed snapshot of %T state", s)
	}
	out, err := encodeEntries(cur.All(), func(b []byte, st State) ([]byte, error) {
		enc, err := sn.EncodeState(st)
		return append(binary.AppendUvarint(b, uint64(len(enc))), enc...), err
	})
	if err != nil {
		return nil, fmt.Errorf("dtype: keyed snapshot: %w", err)
	}
	return out, nil
}

// DecodeState implements Snapshotter for the keyed lift.
func (k Keyed) DecodeState(data []byte) (State, error) {
	sn, ok := k.Inner.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("dtype: keyed inner type %s has no snapshot encoding", k.Inner.Name())
	}
	var out KeyedState
	if err := readEntries(data, true, func(key string, r *WireReader) {
		enc := r.bytes(r.Count("object state"))
		if r.err != nil {
			return
		}
		inner, err := sn.DecodeState(enc)
		if err != nil {
			r.Fail("object %q: %w", key, err)
			return
		}
		out = out.With(key, inner)
	}); err != nil {
		return nil, fmt.Errorf("dtype: keyed snapshot: %w", err)
	}
	return out, nil
}

var (
	_ Snapshotter = Counter{}
	_ Snapshotter = Register{}
	_ Snapshotter = Set{}
	_ Snapshotter = Log{}
	_ Snapshotter = Bank{}
	_ Snapshotter = Directory{}
	_ Snapshotter = Keyed{}
)
