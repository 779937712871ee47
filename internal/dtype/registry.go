package dtype

import (
	"encoding/gob"
	"sort"
	"sync"
)

var registerOnce sync.Once

// builtin lists the data types shipped with the package, keyed by their
// Name(). cmd tools and multi-process deployments select a data type by
// this name, so every process of a cluster agrees on the object semantics.
var builtin = map[string]DataType{
	Counter{}.Name():   Counter{},
	Register{}.Name():  Register{},
	Set{}.Name():       Set{},
	Directory{}.Name(): Directory{},
	Log{}.Name():       Log{},
	Bank{}.Name():      Bank{},
}

// ByName returns the built-in data type with the given Name().
func ByName(name string) (DataType, bool) {
	dt, ok := builtin[name]
	return dt, ok
}

// Names returns the built-in data type names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtin))
	for name := range builtin {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// wireOperators lists one value of every built-in operator type: the
// types RegisterWire registers with gob and the wire form (wire.go) tags.
var wireOperators = []Operator{
	CtrAdd{}, CtrDouble{}, CtrRead{},
	RegWrite{}, RegRead{},
	SetAdd{}, SetRemove{}, SetContains{}, SetSize{},
	DirBind{}, DirUnbind{}, DirSetAttr{}, DirGetAttr{}, DirLookup{}, DirList{},
	LogAppend{}, LogRead{}, LogLen{},
	BankDeposit{}, BankWithdraw{}, BankBalance{},
	KeyedOp{Op: CtrRead{}}, KeyInstall{}, // an inner operator, so the KeyedOp encodes
}

// RegisterWire registers every built-in operator type with encoding/gob, so
// operators can cross process boundaries inside interface-typed fields
// (Operation.Op) of the messages that still travel as gob — plain gossip,
// range answers and the stable-store journal. The hot frames carry
// operators in the package's own wire form (AppendOperator) instead.
// Reportable values of the built-in types are primitives and []string,
// which gob transmits without registration. RegisterWire is idempotent and
// safe to call from multiple packages.
func RegisterWire() {
	registerOnce.Do(func() {
		for _, op := range wireOperators {
			gob.Register(op)
		}
	})
}
