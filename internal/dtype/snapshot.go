package dtype

import (
	"encoding/binary"
	"fmt"
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

// --- Set ---

// EncodeState implements Snapshotter: the canonical sorted member encoding.
func (Set) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(SetState)
	if !ok {
		return nil, fmt.Errorf("dtype: set snapshot of %T state", s)
	}
	return []byte(cur.members), nil
}

// DecodeState implements Snapshotter. Members must be strictly ascending:
// sorted AND duplicate-free, or the decoded set would disagree with every
// honestly built one (e.g. on SetSize).
func (Set) DecodeState(data []byte) (State, error) {
	st := SetState{members: string(data)}
	ms := st.Members()
	for i := 1; i < len(ms); i++ {
		if ms[i] <= ms[i-1] {
			return nil, fmt.Errorf("dtype: set snapshot members not in canonical order")
		}
	}
	return st, nil
}

// --- Log ---

// EncodeState implements Snapshotter: the canonical joined-entries encoding.
func (Log) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(LogState)
	if !ok {
		return nil, fmt.Errorf("dtype: log snapshot of %T state", s)
	}
	return []byte(cur.joined), nil
}

// DecodeState implements Snapshotter.
func (Log) DecodeState(data []byte) (State, error) {
	return LogState{joined: string(data)}, nil
}

// --- Bank ---

// EncodeState implements Snapshotter: the canonical account encoding.
func (Bank) EncodeState(s State) ([]byte, error) {
	cur, ok := s.(BankState)
	if !ok {
		return nil, fmt.Errorf("dtype: bank snapshot of %T state", s)
	}
	return []byte(cur.enc), nil
}

// DecodeState implements Snapshotter.
func (Bank) DecodeState(data []byte) (State, error) {
	st := BankState{enc: string(data)}
	// Validate every entry, then re-canonicalize through the state's own
	// builder to reject garbage: a valid encoding survives a no-op rebuild
	// unchanged.
	if st.enc != "" {
		entries := strings.Split(st.enc, "\x00")
		for _, kv := range entries {
			if strings.IndexByte(kv, '=') < 0 {
				return nil, fmt.Errorf("dtype: bank snapshot entry %q lacks '='", kv)
			}
		}
		rebuilt := BankState{}
		for _, kv := range entries {
			i := strings.IndexByte(kv, '=')
			rebuilt = rebuilt.with(kv[:i], st.Balance(kv[:i]))
		}
		if rebuilt.enc != st.enc {
			return nil, fmt.Errorf("dtype: bank snapshot not in canonical form")
		}
	}
	return st, nil
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

// EncodeState implements Snapshotter for the keyed lift: (key,
// inner-encoding) pairs in ascending key order, each length-prefixed with a
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
	var out []byte
	for key, st := range cur.All() {
		enc, err := sn.EncodeState(st)
		if err != nil {
			return nil, fmt.Errorf("dtype: keyed snapshot of object %q: %w", key, err)
		}
		out = binary.AppendUvarint(out, uint64(len(key)))
		out = append(out, key...)
		out = binary.AppendUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
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
	rest := data
	var minimal [binary.MaxVarintLen64]byte
	next := func() ([]byte, error) {
		n, used := binary.Uvarint(rest)
		if used <= 0 || n > uint64(len(rest)-used) {
			return nil, fmt.Errorf("dtype: keyed snapshot truncated")
		}
		// A padded length decodes to the same n but would not re-encode
		// to the same bytes.
		if binary.PutUvarint(minimal[:], n) != used {
			return nil, fmt.Errorf("dtype: keyed snapshot length not in canonical form")
		}
		b := rest[used : used+int(n)]
		rest = rest[used+int(n):]
		return b, nil
	}
	prevKey := ""
	for len(rest) > 0 {
		keyB, err := next()
		if err != nil {
			return nil, err
		}
		encB, err := next()
		if err != nil {
			return nil, err
		}
		key := string(keyB)
		if out.Len() > 0 && key <= prevKey {
			return nil, fmt.Errorf("dtype: keyed snapshot keys not in canonical order")
		}
		inner, err := sn.DecodeState(encB)
		if err != nil {
			return nil, fmt.Errorf("dtype: keyed snapshot object %q: %w", key, err)
		}
		out = out.With(key, inner)
		prevKey = key
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
