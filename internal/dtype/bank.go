package dtype

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Bank is a multi-account balance store with deposits, withdrawals (which
// fail rather than overdraw), and balance queries. Withdrawals are
// state-dependent (their success observes the balance), so Bank exercises
// operations whose values — not just states — depend on ordering.
type Bank struct{}

var (
	_ DataType         = Bank{}
	_ Commuter         = Bank{}
	_ ObliviousChecker = Bank{}
	_ ReadOnlyChecker  = Bank{}
)

// BankDeposit adds Amount (> 0) to Account. Value: "ok".
type BankDeposit struct {
	Account string
	Amount  int64
}

// BankWithdraw subtracts Amount from Account if the balance suffices.
// Value: "ok" or "insufficient".
type BankWithdraw struct {
	Account string
	Amount  int64
}

// BankBalance reads the balance of Account (value: int64).
type BankBalance struct{ Account string }

func (o BankDeposit) String() string  { return fmt.Sprintf("deposit(%s,%d)", o.Account, o.Amount) }
func (o BankWithdraw) String() string { return fmt.Sprintf("withdraw(%s,%d)", o.Account, o.Amount) }
func (o BankBalance) String() string  { return fmt.Sprintf("balance(%s)", o.Account) }

// BankState is the immutable canonical state of a Bank: sorted
// "account=balance" entries.
type BankState struct{ enc string }

func (s BankState) String() string { return "bank[" + strings.ReplaceAll(s.enc, "\x00", " ") + "]" }

// Balance returns the balance of an account (0 if absent). It scans the
// encoding in place.
func (s BankState) Balance(account string) int64 {
	for rest := s.enc; rest != ""; {
		var kv string
		kv, rest, _ = strings.Cut(rest, "\x00")
		if k, v, _ := strings.Cut(kv, "="); k == account {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

func (s BankState) with(account string, balance int64) BankState {
	m := make(map[string]int64)
	if s.enc != "" {
		for _, kv := range strings.Split(s.enc, "\x00") {
			i := strings.IndexByte(kv, '=')
			n, _ := strconv.ParseInt(kv[i+1:], 10, 64)
			m[kv[:i]] = n
		}
	}
	m[account] = balance
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		if m[k] == 0 {
			continue // canonical: zero balances are absent
		}
		parts = append(parts, k+"="+strconv.FormatInt(m[k], 10))
	}
	return BankState{enc: strings.Join(parts, "\x00")}
}

// Name implements DataType.
func (Bank) Name() string { return "bank" }

// Initial implements DataType.
func (Bank) Initial() State { return BankState{} }

// Apply implements DataType. Whenever the state does not change it returns
// s itself, so a read does not re-box the state.
func (Bank) Apply(s State, op Operator) (State, Value) {
	cur, ok := s.(BankState)
	if !ok {
		panic(fmt.Sprintf("dtype: bank state has type %T, want BankState", s))
	}
	switch o := op.(type) {
	case BankDeposit:
		return cur.with(o.Account, cur.Balance(o.Account)+o.Amount), "ok"
	case BankWithdraw:
		bal := cur.Balance(o.Account)
		if bal < o.Amount {
			return s, "insufficient"
		}
		return cur.with(o.Account, bal-o.Amount), "ok"
	case BankBalance:
		return s, cur.Balance(o.Account)
	default:
		panic(fmt.Sprintf("dtype: bank does not support operator %T", op))
	}
}

// ReadOnly implements ReadOnlyChecker: balance queries never change the
// accounts (a refused withdrawal does not either, but whether it is
// refused depends on the state).
func (Bank) ReadOnly(op Operator) bool {
	_, bal := op.(BankBalance)
	return bal
}

// Commute implements Commuter: operations on different accounts commute;
// deposits on the same account commute with each other; withdrawals do not
// commute with other mutators of the same account (success depends on
// interleaving).
func (Bank) Commute(op1, op2 Operator) bool {
	a1, m1 := bankMutTarget(op1)
	a2, m2 := bankMutTarget(op2)
	if !m1 || !m2 {
		return true
	}
	if a1 != a2 {
		return true
	}
	_, d1 := op1.(BankDeposit)
	_, d2 := op2.(BankDeposit)
	return d1 && d2
}

// Oblivious implements ObliviousChecker: balance queries and withdrawals
// observe mutators of their account; deposits are oblivious to everything.
func (Bank) Oblivious(op1, op2 Operator) bool {
	a2, m2 := bankMutTarget(op2)
	if !m2 {
		return true
	}
	switch q := op1.(type) {
	case BankBalance:
		return q.Account != a2
	case BankWithdraw:
		return q.Account != a2
	default:
		return true
	}
}

func bankMutTarget(op Operator) (account string, isMutator bool) {
	switch o := op.(type) {
	case BankDeposit:
		return o.Account, true
	case BankWithdraw:
		return o.Account, true
	default:
		return "", false
	}
}
