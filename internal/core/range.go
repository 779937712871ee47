package core

import (
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// Descriptor-range catch-up (DESIGN.md §5): the one state-transfer path.
// The client names the solid-prefix length it already holds, ONE peer
// streams the missing slice as bounded SnapOp chunks and finishes with the
// post-prefix state, its label watermark, its resize records, and a tail
// gossip covering its unsolid suffix; the client splices the chunks onto
// its own prefix, routes the result through the install validator
// (installSnapshot), and merges the tail.
//
// Crash recovery (Replica.Recover, recovery.go) runs one round per peer,
// one peer at a time, and resumes when a Done chunk from EVERY peer has
// installed — the §9.3 "response from each replica" barrier. Have is
// re-pinned to the current memoized length at each round, so the prefix
// crosses the wire once and later rounds carry only a tail. A live join
// (CatchUpRange) runs a single round against one hosting peer while the
// replica keeps serving: it lost nothing, so no barrier is owed.

// rangeChunkOps is the per-chunk SnapOp count of a range answer: a long
// missing slice is streamed as ceil(missing/rangeChunkOps) frames instead
// of one unbounded message.
const rangeChunkOps = 256

// CatchUpRange opens a range catch-up round against one hosting peer: the
// live-join form — the replica keeps serving while the round runs. Returns
// false when the replica has no peer to fetch from (single-replica shard)
// or is crashed. RetryRecovery rotates an unanswered round to the next
// peer; the round closes when the Done chunk installs.
func (r *Replica) CatchUpRange() bool {
	r.mu.Lock()
	if r.crashed || r.n < 2 {
		r.mu.Unlock()
		return false
	}
	to, req := r.openRangeRoundLocked()
	r.mu.Unlock()
	r.net.Send(r.node, to, req)
	return true
}

// RangeCatchingUp reports whether a range round is open.
func (r *Replica) RangeCatchingUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rangeNonce != 0
}

// openRangeRoundLocked starts a fresh round: new nonce, next peer in the
// rotation that has not yet answered this recovery (recoveryAcks is empty
// outside one), buffer cleared, Have pinned to the current solid prefix.
// The caller guarantees some peer is still unanswered. Mutex held; caller
// sends the returned request after unlocking.
func (r *Replica) openRangeRoundLocked() (transport.NodeID, RangeRequestMsg) {
	r.rangeSeq++
	r.rangeNonce = r.rangeSeq
	for {
		r.rangePeer = (int(r.id) + 1 + r.rangeTries%(r.n-1)) % r.n
		if _, answered := r.recoveryAcks[label.ReplicaID(r.rangePeer)]; !answered {
			break
		}
		r.rangeTries++
	}
	r.rangeHave = r.memoized
	r.rangeBuf, r.rangeDone = nil, nil
	r.rangeProgress = false
	r.rangeSeen = r.round
	return r.peers[r.rangePeer], RangeRequestMsg{From: r.id, Have: r.rangeHave, Nonce: r.rangeNonce}
}

// RetryRecovery is the periodic retry against lost range requests, lost
// chunks, and dead serving peers — for crash recovery and live joins alike.
// A round that received a chunk since the last call is still streaming and
// is left alone; otherwise it is abandoned and re-opened against the next
// peer that has not answered, keeping the answers already collected. A
// no-op when no round is open (decided under the lock, so a recovery that
// just completed is never restarted; contrast Recover, which always begins
// afresh).
func (r *Replica) RetryRecovery() {
	r.mu.Lock()
	if r.crashed || r.rangeNonce == 0 || r.rangeProgress {
		r.rangeProgress = false
		r.mu.Unlock()
		return
	}
	r.rangeTries++
	r.metrics.RangeRetries++
	to, req := r.openRangeRoundLocked()
	r.mu.Unlock()
	r.net.Send(r.node, to, req)
}

// handleRangeRequest serves one range round: chunked SnapOps for the slice
// of the memoized solid prefix the requester is missing, then the Done
// chunk with state, watermark, resize records, and the tail gossip. A peer
// with no prefix to encode (nothing memoized, no Snapshotter, or an
// encoding failure) serves no chunks and sends a FULL tail instead —
// complete, because a replica that cannot snapshot never prunes
// (NewReplica).
//
// A replica that is itself recovering still answers, from whatever its
// store reload and the answers so far have given it: two overlapping
// recoveries — or a whole cluster restarted from its journals — would
// otherwise wait on each other forever.
//
// The answer covers this replica's whole change log: its tail's header
// spans the log from the incarnation's start to the next free position,
// where the requester starts its watermark, and deltas to the requester
// restart there. Until the requester acknowledges that position the answer
// counts as an unacknowledged frame, so a lost answer, or one the
// requester did not install, leads to a resend from its last
// acknowledgement.
func (r *Replica) handleRangeRequest(msg RangeRequestMsg) {
	from := int(msg.From)
	r.mu.Lock()
	if from < 0 || from >= r.n || from == int(r.id) || r.crashed {
		r.mu.Unlock()
		return
	}
	r.metrics.RangeServed++
	lo := msg.Have
	if lo < 0 {
		lo = 0
	}
	total := r.memoized
	if lo > total {
		lo = total
	}

	canSnap := total > 0 && dtype.CanSnapshot(r.dt)
	var state []byte
	if canSnap {
		enc, err := r.dt.(dtype.Snapshotter).EncodeState(r.memoState)
		if err != nil {
			r.fault(FaultBadSnapshot, ops.ID{}, "encoding local state for range answer: %v", err)
			canSnap = false
		} else {
			state = enc
		}
	}

	var out []RangeResponseMsg
	if canSnap {
		for off := lo; off < total; off += r.rangeChunk {
			hi := off + r.rangeChunk
			if hi > total {
				hi = total
			}
			out = append(out, RangeResponseMsg{
				From:   r.id,
				Nonce:  msg.Nonce,
				Offset: off,
				Ops:    r.buildPrefixSnapOps(off, hi),
			})
		}
	}
	done := RangeResponseMsg{
		From:      r.id,
		Nonce:     msg.Nonce,
		Offset:    total,
		Done:      true,
		DataType:  r.dt.Name(),
		Total:     total,
		HasState:  canSnap,
		State:     state,
		Watermark: r.gen.HighSeq(),
		Resizes:   r.resizeRecordsLocked(),
	}
	if canSnap {
		// The chunks and state cover the prefix; the tail only has to carry
		// the unsolid suffix and the not-yet-done arrival queue.
		done.Tail = r.buildTail(r.memoized)
	} else {
		done.Tail = r.buildFullGossip()
	}
	next := r.logNext()
	done.Tail.Epoch, done.Tail.Base, done.Tail.Seq = r.epoch, r.epoch, next
	l := &r.links[from]
	l.sent, l.since, l.probing = next, r.round, true
	out = append(out, done)
	r.metrics.RangeChunksSent += uint64(len(out))
	to := r.peers[from]
	r.mu.Unlock()

	// The answer carries labels; the ack-after-durable invariant extends to
	// range answers like any other externalization.
	if !r.commitStore() {
		return
	}
	for _, m := range out {
		r.net.Send(r.node, to, m)
	}
}

// handleRangeResponse assembles the client side of a round: buffer
// contiguous chunks, and on the Done chunk splice them onto the replica's
// own prefix, validate and install the result through installSnapshot, and
// merge the tail. Any gap, nonce mismatch, or validation failure abandons
// the attempt — the round stays open and the retry ticker rotates it to
// another peer, so a lossy or hostile server costs a retry, never
// corruption. A Done chunk that overtakes chunks of its own answer waits
// for them. A recovery still owed answers opens its next round here.
func (r *Replica) handleRangeResponse(msg RangeResponseMsg) {
	r.mu.Lock()
	if r.crashed || r.rangeNonce == 0 || msg.Nonce != r.rangeNonce || int(msg.From) != r.rangePeer {
		r.metrics.RangeRejects++
		r.mu.Unlock()
		return
	}
	end := r.rangeHave + len(r.rangeBuf)
	if !msg.Done {
		if msg.Offset > end || msg.Offset+len(msg.Ops) <= end {
			// A gap, or nothing past the buffer: the buffer stays a solid
			// extension of Have or it is worthless. A chunk that overlaps
			// its end (a repeated request's answer) extends it: a solid
			// prefix never changes, so both answers agree where they
			// overlap, and the install validator checks the splice.
			r.metrics.RangeRejects++
			r.mu.Unlock()
			return
		}
		r.metrics.RangeChunksReceived++
		r.rangeBuf = append(r.rangeBuf, msg.Ops[end-msg.Offset:]...)
		r.rangeProgress, r.rangeSeen = true, r.round
		done := r.rangeDone
		if done == nil || r.rangeHave+len(r.rangeBuf) < done.Total {
			r.mu.Unlock()
			return
		}
		// The Done chunk overtook this one and waited for it.
		msg, r.rangeDone = *done, nil
	} else {
		r.metrics.RangeChunksReceived++
		if msg.HasState && msg.Total > r.memoized && end < msg.Total {
			// Chunks still in flight or lost: keep the Done chunk until they
			// arrive, from this answer or a repeated one.
			r.rangeDone = &msg
			r.rangeProgress, r.rangeSeen = true, r.round
			r.mu.Unlock()
			return
		}
	}
	if msg.HasState && r.rangeHave <= msg.Total && msg.Total < r.rangeHave+len(r.rangeBuf) {
		r.rangeBuf = r.rangeBuf[:msg.Total-r.rangeHave] // a repeated answer's chunks ran past this Done
	}
	if !r.finishRangeLocked(msg) {
		// Failed round: keep it open (and the buffer clear) for the next
		// retry to rotate.
		r.metrics.RangeRejects++
		r.rangeBuf = nil
		r.rangeProgress = false
		r.mu.Unlock()
		return
	}
	var to transport.NodeID
	var next RangeRequestMsg
	if r.recovering {
		to, next = r.openRangeRoundLocked()
	}
	r.finishLocked(nil)
	if next.Nonce != 0 {
		r.net.Send(r.node, to, next)
	}
}

// finishRangeLocked applies a Done chunk. Mutex held; reports whether the
// round completed. On true the round is closed and, during crash recovery,
// the serving peer is counted as answered — the replica resumes once every
// peer has been (§9.3).
func (r *Replica) finishRangeLocked(msg RangeResponseMsg) bool {
	// Freshness first, as in installSnapshot: labels issued from here on
	// sort above everything the serving peer had seen.
	r.gen.ObserveSeq(msg.Watermark)
	switch {
	case !msg.HasState:
		// The peer had no prefix to encode; its tail carries everything.
	case msg.Total <= r.memoized:
		// Nothing this replica lacks: by the solid-prefix invariant the
		// peer's prefix is a prefix of the local one.
		r.metrics.SnapshotsIgnored++
	case r.rangeHave+len(r.rangeBuf) != msg.Total:
		// Truncated transfer: a chunk was lost (or withheld). Refuse —
		// installing a prefix with a hole would be exactly the corruption
		// the validator exists to stop.
		return false
	default:
		snap := prefixSnapshot{
			From:      msg.From,
			DataType:  msg.DataType,
			Ops:       append(r.buildPrefixSnapOps(0, r.rangeHave), r.rangeBuf...),
			State:     msg.State,
			Watermark: msg.Watermark,
		}
		if !r.installSnapshot(snap) {
			// The splice failed validation (installSnapshot recorded the
			// fault): do not complete the round on a prefix we refused.
			return false
		}
		r.metrics.SnapshotsInstalled++
	}
	r.installResizeRecords(msg.Resizes)
	// The tail completes the peer's whole state, so it merges whatever its
	// header says; the header then starts the watermark at its Seq.
	r.mergeStateLocked(int(msg.From), msg.Tail)
	r.gossipHeaderLocked(int(msg.From), msg.Tail)
	r.rangeNonce = 0
	r.rangeBuf = nil
	r.metrics.RangeCatchups++
	if r.recovering {
		r.recoveryAcks[msg.From] = struct{}{}
		r.recovering = len(r.recoveryAcks) < r.n-1
	}
	if !r.recovering {
		r.recoveryAcks = nil
		r.rangeTries = 0
	}
	return true
}
