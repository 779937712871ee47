package esds

import "esds/internal/dtype"

// This file re-exports the built-in serial data types and typed operator
// constructors, so applications can use the service without importing
// internal packages.

// Counter returns the integer-counter data type (state: int64).
func Counter() DataType { return dtype.Counter{} }

// Add increments the counter by n. Value: "ok".
func Add(n int64) Operator { return dtype.CtrAdd{N: n} }

// Double doubles the counter. Value: "ok". Add and Double do not commute —
// the paper's §10.3 example.
func Double() Operator { return dtype.CtrDouble{} }

// ReadCounter reads the counter (value: int64).
func ReadCounter() Operator { return dtype.CtrRead{} }

// Register returns the read/write register data type (state: string).
func Register() DataType { return dtype.Register{} }

// Write sets the register. Value: "ok".
func Write(v string) Operator { return dtype.RegWrite{Val: v} }

// Read reads the register (value: string).
func Read() Operator { return dtype.RegRead{} }

// StringSet returns the add/remove set data type.
func StringSet() DataType { return dtype.Set{} }

// SetAdd inserts an element. Value: "ok".
func SetAdd(elem string) Operator { return dtype.SetAdd{Elem: elem} }

// SetRemove deletes an element. Value: "ok".
func SetRemove(elem string) Operator { return dtype.SetRemove{Elem: elem} }

// SetContains queries membership (value: bool).
func SetContains(elem string) Operator { return dtype.SetContains{Elem: elem} }

// SetSize queries cardinality (value: int).
func SetSize() Operator { return dtype.SetSize{} }

// Directory returns the name-service data type of the paper's motivating
// application (§11.2): names with attribute sets. A name, key or value
// containing the bytes 0x00–0x02, or a key containing '=', is refused:
// the operation changes nothing and its value is "invalid".
func Directory() DataType { return dtype.Directory{} }

// Bind creates a name. Value: "ok".
func Bind(name string) Operator { return dtype.DirBind{Name: name} }

// Unbind removes a name and its attributes. Value: "ok".
func Unbind(name string) Operator { return dtype.DirUnbind{Name: name} }

// SetAttr sets an attribute of a bound name. Value: "ok", or
// "no-such-name" if the name is unbound — order SetAttr after its Bind
// with a prev constraint, exactly as §11.2 prescribes.
func SetAttr(name, key, val string) Operator {
	return dtype.DirSetAttr{Name: name, Key: key, Val: val}
}

// GetAttr reads an attribute (value: string; "" if absent).
func GetAttr(name, key string) Operator { return dtype.DirGetAttr{Name: name, Key: key} }

// Lookup queries whether a name is bound (value: bool).
func Lookup(name string) Operator { return dtype.DirLookup{Name: name} }

// ListNames returns the sorted bound names (value: []string).
func ListNames() Operator { return dtype.DirList{} }

// Log returns the append-only log data type.
func Log() DataType { return dtype.Log{} }

// Append appends an entry (value: the new length).
func Append(entry string) Operator { return dtype.LogAppend{Entry: entry} }

// ReadLog reads the whole log (value: string, entries joined by "|").
func ReadLog() Operator { return dtype.LogRead{} }

// LogLen reads the entry count (value: int).
func LogLen() Operator { return dtype.LogLen{} }

// Bank returns the multi-account balance data type.
func Bank() DataType { return dtype.Bank{} }

// Deposit adds to an account. Value: "ok".
func Deposit(account string, amount int64) Operator {
	return dtype.BankDeposit{Account: account, Amount: amount}
}

// Withdraw subtracts if the balance suffices. Value: "ok" or
// "insufficient".
func Withdraw(account string, amount int64) Operator {
	return dtype.BankWithdraw{Account: account, Amount: amount}
}

// Balance reads an account balance (value: int64).
func Balance(account string) Operator { return dtype.BankBalance{Account: account} }
