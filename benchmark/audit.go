package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
)

// opRec is the harness's record of one submitted operation. The submitter
// fills id/op/strict/due/sub before or right after Submit returns; the
// callback fills val/err and then stores done, so a reader that observes a
// non-zero done sees the response.
type opRec struct {
	id       ops.ID
	op       dtype.Operator // as submitted (keyed when the deployment is sharded)
	strict   bool
	measured bool  // inside the timed window (warm-up and read-backs are not)
	readBack int64 // for a strict counter read-back: the exact sum it must return; -1 otherwise
	due      int64 // ns since the repetition epoch the op was due (open loop) or submitted (closed loop)
	sub      int64 // ns the Submit call started
	subEnd   int64 // ns the Submit call returned (traced runs)
	done     atomic.Int64
	val      dtype.Value
	err      error
	inOrder  bool // set by the audit
}

func (r *opRec) answered() bool { return r.done.Load() != 0 && r.err == nil }

// auditReport is the outcome of one repetition's audit.
type auditReport struct {
	convergeMs float64
	failed     int   // audit-mismatched operations
	err        error // first violation, for the log
}

func (a *auditReport) fail(format string, args ...any) {
	a.failed++
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

// convergedOrder reports whether every replica of a group holds the same
// done sequence with the same labels, and if so returns that sequence — the
// eventual total order. It is core.Cluster.CheckConvergence for replicas
// that live in separate single-replica clusters (the TCP deployments).
func convergedOrder(group []*core.Replica) ([]ops.ID, string) {
	base := group[0].Snapshot()
	for i := 1; i < len(group); i++ {
		s := group[i].Snapshot()
		if len(s.Done) != len(base.Done) {
			return nil, fmt.Sprintf("replica %d has %d done ops, replica 0 has %d", i, len(s.Done), len(base.Done))
		}
		for k, id := range s.Done {
			if base.Done[k] != id {
				return nil, fmt.Sprintf("replica %d orders %v at %d, replica 0 orders %v", i, id, k, base.Done[k])
			}
		}
		if len(s.Labels) != len(base.Labels) {
			return nil, fmt.Sprintf("replica %d knows %d labels, replica 0 knows %d", i, len(s.Labels), len(base.Labels))
		}
		for id, l := range base.Labels {
			if s.Labels[id] != l {
				return nil, fmt.Sprintf("label of %v differs between replica 0 and %d", id, i)
			}
		}
	}
	return base.Done, ""
}

// quiescent is the cheap precondition polled before the full comparison:
// every replica of the group has done, stabilised and memoized the same
// number of operations and has nothing pending.
func quiescent(group []*core.Replica) bool {
	first := group[0].Metrics()
	if first.PendingOps != 0 || first.StableOps != first.DoneOps {
		return false
	}
	for _, r := range group[1:] {
		m := r.Metrics()
		if m.PendingOps != 0 || m.DoneOps != first.DoneOps || m.StableOps != first.DoneOps {
			return false
		}
	}
	return true
}

// audit checks one repetition, outside any timed window:
//
//  1. no replica recorded a fault and every group converges to one order;
//  2. replaying each converged order through the serial data type reproduces
//     every strict response seen during the run (a strict response is never
//     invalidated), and every strict counter read-back returned the exact
//     sum of the acknowledged adds it was constrained after;
//  3. every acknowledged operation appears in a converged order (nothing
//     answered and then lost).
//
// since is when the last callback fired; convergeMs is measured from it.
func audit(d *deployment, recs []*opRec, since time.Time, timeout time.Duration) auditReport {
	var rep auditReport
	deadline := time.Now().Add(timeout)
	orders := make([][]ops.ID, len(d.groups))
	for g, group := range d.groups {
		for {
			reason := "not quiescent"
			if quiescent(group) {
				if orders[g], reason = convergedOrder(group); reason == "" {
					break
				}
			}
			if time.Now().After(deadline) {
				rep.fail("group %d did not converge: %s", g, reason)
				return rep
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	rep.convergeMs = float64(time.Since(since)) / 1e6
	for _, r := range d.replicas() {
		if faults := r.Faults(); len(faults) > 0 {
			rep.fail("replica fault: %v", faults[0])
			return rep
		}
	}

	byID := make(map[ops.ID]*opRec, len(recs))
	for _, r := range recs {
		byID[r.id] = r
	}
	for g, order := range orders {
		state := d.serial.Initial()
		for _, id := range order {
			r := byID[id]
			if r == nil {
				rep.fail("group %d orders %v, which the harness never submitted", g, id)
				continue
			}
			var v dtype.Value
			state, v = d.serial.Apply(state, r.op)
			r.inOrder = true
			if r.strict && r.answered() && fmt.Sprint(v) != fmt.Sprint(r.val) {
				rep.fail("strict %v answered %v but its position in the eventual order gives %v", id, r.val, v)
			}
		}
	}
	for _, r := range recs {
		if !r.answered() {
			continue
		}
		if !r.inOrder {
			rep.fail("%v was acknowledged but is in no converged order", r.id)
		}
		if r.readBack >= 0 {
			if got, _ := r.val.(int64); got != r.readBack {
				rep.fail("read-back %v returned %v, want exactly %d", r.id, r.val, r.readBack)
			}
		}
	}
	return rep
}
