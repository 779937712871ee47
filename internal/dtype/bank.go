package dtype

import (
	"fmt"
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

// BankState is the immutable state of a Bank: account → balance, held in
// the package's persistent map (pmap). An account whose balance is zero is
// not bound, so equal balances make equal states.
type BankState struct {
	accounts pmap[int64]
}

func (s BankState) String() string {
	var b strings.Builder
	for acct, bal := range s.accounts.All() {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", acct, bal)
	}
	return "bank[" + b.String() + "]"
}

// with returns the state with account's balance set, unbinding a zero one.
func (s BankState) with(account string, balance int64) BankState {
	if balance == 0 {
		return BankState{s.accounts.Without(account)}
	}
	return BankState{s.accounts.With(account, balance)}
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
	// An unbound account reads as its zero balance.
	switch o := op.(type) {
	case BankDeposit:
		bal, _ := cur.accounts.Get(o.Account)
		return cur.with(o.Account, bal+o.Amount), "ok"
	case BankWithdraw:
		bal, _ := cur.accounts.Get(o.Account)
		if bal < o.Amount {
			return s, "insufficient"
		}
		return cur.with(o.Account, bal-o.Amount), "ok"
	case BankBalance:
		bal, _ := cur.accounts.Get(o.Account)
		return s, bal
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
