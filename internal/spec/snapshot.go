package spec

import (
	"fmt"

	"esds/internal/dtype"
	"esds/internal/ops"
)

// CheckSnapshotInstallEquivalence is the checkable form of the soundness
// obligation behind snapshot-based recovery (the §9.3 + §10.2 composition):
// installing a snapshot of a serialized prefix must be indistinguishable
// from replaying that prefix's descriptors.
//
// Concretely, for a history seq (already in its eventual total order) split
// at cut:
//
//	replay(σ₀, seq)  ≡  replay(decode(encode(outcome(σ₀, seq[:cut]))), seq[cut:])
//
// where encode/decode is the data type's canonical wire form
// (dtype.Snapshotter) — exactly what a recovering replica receives in a
// range answer and then extends by descriptor replay. The check compares the
// value of every post-cut operation and the final state; the pre-cut values
// carried by the snapshot itself are compared against the full replay too,
// since a recovering replica answers retransmitted requests for pruned
// operations from them.
func CheckSnapshotInstallEquivalence(dt dtype.DataType, seq []ops.Operation, cut int) error {
	if cut < 0 || cut > len(seq) {
		return fmt.Errorf("spec: snapshot cut %d out of range [0, %d]", cut, len(seq))
	}
	sn, ok := dt.(dtype.Snapshotter)
	if !ok {
		return fmt.Errorf("spec: data type %s has no snapshot encoding", dt.Name())
	}

	// Ground truth: one uninterrupted replay.
	fullState := dt.Initial()
	fullVals := make([]dtype.Value, len(seq))
	for i, x := range seq {
		fullState, fullVals[i] = dt.Apply(fullState, x.Op)
	}

	// The snapshot path: replay the prefix (this is what the snapshotting
	// peer did over its lifetime), push the outcome through the wire
	// encoding, and replay the suffix on the decoded state (what the
	// recovering replica does).
	prefixState := dt.Initial()
	prefixVals := make([]dtype.Value, cut)
	for i := 0; i < cut; i++ {
		prefixState, prefixVals[i] = dt.Apply(prefixState, seq[i].Op)
	}
	enc, err := sn.EncodeState(prefixState)
	if err != nil {
		return fmt.Errorf("spec: encoding prefix state at cut %d: %w", cut, err)
	}
	installed, err := sn.DecodeState(enc)
	if err != nil {
		return fmt.Errorf("spec: decoding prefix state at cut %d: %w", cut, err)
	}

	// The snapshot's memoized values must match the full replay (they
	// answer retransmitted requests for pruned operations).
	for i := 0; i < cut; i++ {
		if fmt.Sprint(prefixVals[i]) != fmt.Sprint(fullVals[i]) {
			return fmt.Errorf("spec: snapshot value of %v differs: %v vs full replay %v",
				seq[i].ID, prefixVals[i], fullVals[i])
		}
	}
	// Descriptor replay on the installed state must reproduce every
	// post-cut value...
	st := installed
	for i := cut; i < len(seq); i++ {
		var v dtype.Value
		st, v = dt.Apply(st, seq[i].Op)
		if fmt.Sprint(v) != fmt.Sprint(fullVals[i]) {
			return fmt.Errorf("spec: value of %v after snapshot install differs: %v vs full replay %v",
				seq[i].ID, v, fullVals[i])
		}
	}
	// ...and the final state.
	if fmt.Sprint(st) != fmt.Sprint(fullState) {
		return fmt.Errorf("spec: final state after snapshot install differs at cut %d:\n  install: %v\n  replay:  %v",
			cut, st, fullState)
	}
	// Determinism of the canonical form: re-encoding the decoded state
	// yields identical bytes (a snapshot relayed through a recovered
	// replica must not drift).
	enc2, err := sn.EncodeState(installed)
	if err != nil {
		return fmt.Errorf("spec: re-encoding installed state: %w", err)
	}
	if string(enc2) != string(enc) {
		return fmt.Errorf("spec: snapshot encoding not canonical at cut %d: re-encoding differs", cut)
	}
	return nil
}
