package dtype

import (
	"encoding/binary"
	"fmt"
)

// Wire form of the built-in operators and reportable values. The hot
// frames of a TCP cluster — requests, responses and compact gossip —
// carry every operator and value in this form inside one opaque byte
// slice, so none of them costs encoding/gob a type name, a nested message
// and a reflective allocation per element.
//
//	operator: tag byte, then its fields in declaration order
//	value:    tag byte, then its payload
//	string:   uvarint length, bytes
//	int64:    zig-zag varint (int too)
//	KeyedOp:  Key, then the inner operator (one level: the inner one may
//	          be neither a KeyedOp nor a KeyInstall)
//	KeyInstall: Key, State (uvarint length, bytes), uvarint count,
//	          {Client, uvarint Seq}... of Subsumes
//	[]string: uvarint count, strings
//
// Empty byte and string slices decode as nil, as they do through gob. An
// operator or value of any other type has no wire form: the append
// functions report an error, and a frame that would carry one is not sent.

// The tag table. Operators and values share one byte space, so a value
// where an operator belongs (or the reverse) is refused, not misread.
const (
	tagCtrAdd byte = iota + 1
	tagCtrDouble
	tagCtrRead
	tagRegWrite
	tagRegRead
	tagSetAdd
	tagSetRemove
	tagSetContains
	tagSetSize
	tagDirBind
	tagDirUnbind
	tagDirSetAttr
	tagDirGetAttr
	tagDirLookup
	tagDirList
	tagLogAppend
	tagLogRead
	tagLogLen
	tagBankDeposit
	tagBankWithdraw
	tagBankBalance
	tagKeyedOp
	tagKeyInstall

	tagNil
	tagString
	tagInt64
	tagInt
	tagFalse
	tagTrue
	tagStrings
)

// AppendOperator appends op's wire form to b. It fails for an operator
// type outside the built-in set (see RegisterWire) and for a KeyedOp
// whose inner operator is keyed again.
func AppendOperator(b []byte, op Operator) ([]byte, error) {
	return appendOperator(b, op, true)
}

func appendOperator(b []byte, op Operator, outer bool) ([]byte, error) {
	switch o := op.(type) {
	case CtrAdd:
		return binary.AppendVarint(append(b, tagCtrAdd), o.N), nil
	case CtrDouble:
		return append(b, tagCtrDouble), nil
	case CtrRead:
		return append(b, tagCtrRead), nil
	case RegWrite:
		return AppendString(append(b, tagRegWrite), o.Val), nil
	case RegRead:
		return append(b, tagRegRead), nil
	case SetAdd:
		return AppendString(append(b, tagSetAdd), o.Elem), nil
	case SetRemove:
		return AppendString(append(b, tagSetRemove), o.Elem), nil
	case SetContains:
		return AppendString(append(b, tagSetContains), o.Elem), nil
	case SetSize:
		return append(b, tagSetSize), nil
	case DirBind:
		return AppendString(append(b, tagDirBind), o.Name), nil
	case DirUnbind:
		return AppendString(append(b, tagDirUnbind), o.Name), nil
	case DirSetAttr:
		return AppendString(AppendString(AppendString(append(b, tagDirSetAttr), o.Name), o.Key), o.Val), nil
	case DirGetAttr:
		return AppendString(AppendString(append(b, tagDirGetAttr), o.Name), o.Key), nil
	case DirLookup:
		return AppendString(append(b, tagDirLookup), o.Name), nil
	case DirList:
		return append(b, tagDirList), nil
	case LogAppend:
		return AppendString(append(b, tagLogAppend), o.Entry), nil
	case LogRead:
		return append(b, tagLogRead), nil
	case LogLen:
		return append(b, tagLogLen), nil
	case BankDeposit:
		return binary.AppendVarint(AppendString(append(b, tagBankDeposit), o.Account), o.Amount), nil
	case BankWithdraw:
		return binary.AppendVarint(AppendString(append(b, tagBankWithdraw), o.Account), o.Amount), nil
	case BankBalance:
		return AppendString(append(b, tagBankBalance), o.Account), nil
	case KeyedOp:
		if outer {
			return appendOperator(AppendString(append(b, tagKeyedOp), o.Key), o.Op, false)
		}
	case KeyInstall:
		if outer {
			b = AppendString(append(b, tagKeyInstall), o.Key)
			b = append(binary.AppendUvarint(b, uint64(len(o.State))), o.State...)
			b = binary.AppendUvarint(b, uint64(len(o.Subsumes)))
			for _, ref := range o.Subsumes {
				b = binary.AppendUvarint(AppendString(b, ref.Client), ref.Seq)
			}
			return b, nil
		}
	}
	return nil, fmt.Errorf("dtype: operator %T has no wire form", op)
}

// ReadOperator reads one operator in wire form. On malformed input it
// returns nil and latches r's error.
func ReadOperator(r *WireReader) Operator {
	return readOperator(r, true)
}

func readOperator(r *WireReader, outer bool) Operator {
	tag := r.Byte()
	switch tag {
	case tagCtrAdd:
		return CtrAdd{N: r.Varint()}
	case tagCtrDouble:
		return CtrDouble{}
	case tagCtrRead:
		return CtrRead{}
	case tagRegWrite:
		return RegWrite{Val: r.Str()}
	case tagRegRead:
		return RegRead{}
	case tagSetAdd:
		return SetAdd{Elem: r.Str()}
	case tagSetRemove:
		return SetRemove{Elem: r.Str()}
	case tagSetContains:
		return SetContains{Elem: r.Str()}
	case tagSetSize:
		return SetSize{}
	case tagDirBind:
		return DirBind{Name: r.Str()}
	case tagDirUnbind:
		return DirUnbind{Name: r.Str()}
	case tagDirSetAttr:
		return DirSetAttr{Name: r.Str(), Key: r.Str(), Val: r.Str()}
	case tagDirGetAttr:
		return DirGetAttr{Name: r.Str(), Key: r.Str()}
	case tagDirLookup:
		return DirLookup{Name: r.Str()}
	case tagDirList:
		return DirList{}
	case tagLogAppend:
		return LogAppend{Entry: r.Str()}
	case tagLogRead:
		return LogRead{}
	case tagLogLen:
		return LogLen{}
	case tagBankDeposit:
		return BankDeposit{Account: r.Str(), Amount: r.Varint()}
	case tagBankWithdraw:
		return BankWithdraw{Account: r.Str(), Amount: r.Varint()}
	case tagBankBalance:
		return BankBalance{Account: r.Str()}
	case tagKeyedOp:
		if outer {
			key := r.Str()
			if inner := readOperator(r, false); r.err == nil {
				return KeyedOp{Key: key, Op: inner}
			}
			return nil
		}
	case tagKeyInstall:
		if outer {
			inst := KeyInstall{Key: r.Str()}
			if n := r.Count("install state"); n > 0 {
				inst.State = append([]byte(nil), r.bytes(n)...)
			}
			if n := r.Count("install subsumes"); n > 0 {
				inst.Subsumes = make([]OpRef, n)
				for i := range inst.Subsumes {
					inst.Subsumes[i] = OpRef{Client: r.Str(), Seq: r.Uvarint()}
				}
			}
			if r.err == nil {
				return inst
			}
			return nil
		}
	default:
		r.Fail("unknown operator tag %d", tag)
		return nil
	}
	r.Fail("operator tag %d nested in a keyed operator", tag)
	return nil
}

// AppendValue appends v's wire form to b. It fails for a value outside
// the built-in types' reportable values: nil, string, int64, int, bool
// and []string.
func AppendValue(b []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case string:
		return AppendString(append(b, tagString), x), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt64), x), nil
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(x)), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case []string:
		b = binary.AppendUvarint(append(b, tagStrings), uint64(len(x)))
		for _, s := range x {
			b = AppendString(b, s)
		}
		return b, nil
	}
	return nil, fmt.Errorf("dtype: value of type %T has no wire form", v)
}

// ReadValue reads one value in wire form. On malformed input it returns
// nil and latches r's error.
func ReadValue(r *WireReader) Value {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagString:
		return r.Str()
	case tagInt64:
		return r.Varint()
	case tagInt:
		return int(r.Varint())
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagStrings:
		n := r.Count("string list")
		if n == 0 {
			return []string(nil)
		}
		out := make([]string, n)
		for i := range out {
			out[i] = r.Str()
		}
		if r.err == nil {
			return out
		}
	default:
		r.Fail("unknown value tag %d", tag)
	}
	return nil
}

// AppendString appends s in wire form: its length, then its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// WireReader walks a wire-form byte slice with strict bounds checking.
// The first violation latches Err; every later read returns zero values,
// so decode logic stays linear and checks the error once. A count larger
// than the bytes left is refused before anything is allocated for it, so
// a short input cannot claim a large allocation.
type WireReader struct {
	data []byte
	pos  int
	err  error
}

// NewWireReader returns a reader positioned at the start of data.
func NewWireReader(data []byte) WireReader { return WireReader{data: data} }

// Err returns the first violation, or nil.
func (r *WireReader) Err() error { return r.err }

// Fail latches a violation, unless one is latched already.
func (r *WireReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Finish returns the first violation, or an error if bytes are left
// over: a frame is consumed exactly or not at all.
func (r *WireReader) Finish() error {
	if r.err == nil && r.pos != len(r.data) {
		r.Fail("%d trailing bytes", len(r.data)-r.pos)
	}
	return r.err
}

// Uvarint reads an unsigned varint. It refuses a padded one (a multi-byte
// varint whose last byte is 0): it decodes to the number a shorter one
// does, so bytes holding it would not re-encode identically.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	switch {
	case n <= 0:
		r.Fail("truncated varint at offset %d", r.pos)
		return 0
	case n > 1 && r.data[r.pos+n-1] == 0:
		r.Fail("padded varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a zig-zag varint.
func (r *WireReader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a uvarint count of items that each take at least one byte,
// and refuses it when it exceeds the bytes left: believing such a count
// would let a six-byte input allocate hundreds of megabytes.
func (r *WireReader) Count(what string) int {
	v := r.Uvarint()
	if left := uint64(len(r.data) - r.pos); v > left {
		r.Fail("%s count %d exceeds the %d bytes left", what, v, left)
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (r *WireReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.Fail("truncated at offset %d", r.pos)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// bytes returns the next n bytes, aliasing the input.
func (r *WireReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.Fail("truncated: want %d bytes at offset %d of %d", n, r.pos, len(r.data))
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Str reads a length-prefixed string (a copy: the input may be reused).
func (r *WireReader) Str() string {
	return string(r.bytes(r.Count("string")))
}
