package core

import (
	"fmt"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
)

// Range responses are the only door through which another process's idea of
// the shard history enters a replica, so this is the decoder-level fuzz
// target for state transfer: arbitrary frame sequences delivered to a
// recovering replica.
//
// The input is a script, rangeFuzzFrameLen bytes per frame:
//
//	[0] flags: 1 Done, 2 wrong nonce, 4 HasState, 8 bad state bytes,
//	           16 swap the first two ops, 32 repeat the first op,
//	           64 strip the first op's label (∞)
//	[1] From (mod 4 — replica 3 does not exist)
//	[2] Offset (mod 8)
//	[3] number of ops, taken from the pool starting at Offset (mod 8)
//	[4] Total (mod 8)
//	[5] watermark
//
// The pool is the serving peer's real four-operation memoized prefix
// followed by two forged operations with ascending labels, so scripts can
// express honest answers, gaps, reorders, truncations and overlong claims
// alike.
const rangeFuzzFrameLen = 6

const (
	fzDone = 1 << iota
	fzWrongNonce
	fzHasState
	fzBadState
	fzSwap
	fzRepeat
	fzNoLabel
)

func FuzzRangeResponse(f *testing.F) {
	frame := func(flags, from, off, n, total byte) []byte { return []byte{flags, from, off, n, total, 9} }
	script := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	f.Add(script(frame(0, 1, 0, 4, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))                         // honest answer
	f.Add(script(frame(0, 1, 0, 2, 0), frame(0, 1, 2, 2, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))   // two chunks
	f.Add(script(frame(0, 1, 1, 3, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))                         // gap at the front
	f.Add(script(frame(0, 1, 2, 2, 0), frame(0, 1, 0, 2, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))   // reordered chunks
	f.Add(script(frame(0, 1, 0, 2, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))                         // truncated
	f.Add(script(frame(fzWrongNonce, 1, 0, 4, 0), frame(fzDone|fzHasState|fzWrongNonce, 1, 4, 0, 4))) // wrong nonce
	f.Add(script(frame(0, 2, 0, 4, 0), frame(fzDone|fzHasState, 2, 4, 0, 4)))                         // wrong peer
	f.Add(script(frame(0, 1, 0, 4, 0), frame(fzDone|fzHasState, 1, 4, 0, 7)))                         // Total lies high
	f.Add(script(frame(0, 1, 0, 4, 0), frame(fzDone|fzHasState, 1, 4, 0, 2)))                         // Total lies low
	f.Add(script(frame(0, 1, 0, 4, 0), frame(fzDone|fzHasState|fzBadState, 1, 4, 0, 4)))              // bad state bytes
	f.Add(script(frame(fzSwap, 1, 0, 4, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))                    // labels not ascending
	f.Add(script(frame(fzRepeat, 1, 0, 3, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))                  // repeated op
	f.Add(script(frame(fzNoLabel, 1, 0, 4, 0), frame(fzDone|fzHasState, 1, 4, 0, 4)))                 // unlabeled op
	f.Add(script(frame(0, 1, 0, 6, 0), frame(fzDone|fzHasState, 1, 6, 0, 6)))                         // forged extension
	f.Add(script(frame(fzDone, 1, 0, 0, 0), frame(fzDone, 2, 0, 0, 0)))                               // stateless answers from both peers
	f.Add(script(frame(0, 1, 0, 4, 0), frame(fzDone|fzHasState, 1, 4, 0, 4), frame(fzDone|fzHasState, 2, 4, 0, 4)))
	f.Add(script(frame(fzDone|fzHasState, 1, 4, 0, 4), frame(0, 1, 0, 4, 0)))                       // Done overtakes its chunk
	f.Add(script(frame(fzDone|fzHasState, 1, 4, 0, 4), frame(0, 1, 0, 2, 0), frame(0, 1, 2, 2, 0))) // ... and two chunks
	f.Add(script(frame(fzDone|fzHasState, 1, 6, 0, 6), frame(0, 1, 0, 6, 0)))                       // waiting Done of a forged extension

	f.Fuzz(func(t *testing.T, data []byte) {
		e, _ := newRecoveryEnvOf(t, dtype.Counter{}, DefaultOptions())
		defer e.cluster.Close()
		for i := 0; i < 4; i++ {
			e.submit("c", dtype.CtrAdd{N: int64(i + 1)}, nil, false)
			e.s.RunFor(3 * sim.Millisecond)
		}
		e.s.RunFor(100 * sim.Millisecond)
		good := buildSnapshotOf(t, e.cluster.Replica(1))
		if len(good.Ops) != 4 {
			t.Fatalf("fixture memoized %d ops, want 4", len(good.Ops))
		}
		pool := append([]SnapOp(nil), good.Ops...)
		top := pool[len(pool)-1].Label.Seq
		for i := uint64(1); i <= 2; i++ {
			pool = append(pool, SnapOp{ID: ops.ID{Client: "forged", Seq: i}, Label: label.Make(top+i, 1), Value: "ok"})
		}

		// The replica under test: crashed, reloaded, its first round open.
		// The simulator is never run again, so only the script reaches it.
		r0 := e.cluster.Replica(0)
		r0.Crash()
		r0.Recover()

		for len(data) >= rangeFuzzFrameLen {
			fr := data[:rangeFuzzFrameLen]
			data = data[rangeFuzzFrameLen:]
			flags := fr[0]

			r0.mu.Lock()
			open := r0.rangeNonce != 0
			nonce, peer, have, buffered, memoized := r0.rangeNonce, r0.rangePeer, r0.rangeHave, len(r0.rangeBuf), r0.memoized
			waiting := r0.rangeDone
			r0.mu.Unlock()
			before := r0.Metrics()

			msg := RangeResponseMsg{
				From:      label.ReplicaID(fr[1] % 4),
				Nonce:     nonce,
				Offset:    int(fr[2] % 8),
				Done:      flags&fzDone != 0,
				DataType:  good.DataType,
				Total:     int(fr[4] % 8),
				HasState:  flags&fzHasState != 0,
				State:     good.State,
				Watermark: uint64(fr[5]),
			}
			if flags&fzWrongNonce != 0 {
				msg.Nonce += 1000
			}
			if flags&fzBadState != 0 {
				msg.State = []byte("bad")
			}
			if lo, hi := msg.Offset, msg.Offset+int(fr[3]%8); lo < len(pool) {
				if hi > len(pool) {
					hi = len(pool)
				}
				msg.Ops = append([]SnapOp(nil), pool[lo:hi]...)
			}
			if flags&fzSwap != 0 && len(msg.Ops) > 1 {
				msg.Ops[0], msg.Ops[1] = msg.Ops[1], msg.Ops[0]
			}
			if flags&fzRepeat != 0 && len(msg.Ops) > 0 {
				dup := msg.Ops[0]
				dup.Label = label.Make(msg.Ops[len(msg.Ops)-1].Label.Seq+1, 0)
				msg.Ops = append(msg.Ops, dup)
			}
			if flags&fzNoLabel != 0 && len(msg.Ops) > 0 {
				msg.Ops[0].Label = label.Infinity
			}
			msg.Tail = GossipMsg{From: msg.From}

			r0.handleRangeResponse(msg) // must not panic

			after := r0.Metrics()
			r0.mu.Lock()
			held := open && msg.Nonce == nonce && int(msg.From) == peer && msg.Done && r0.rangeDone != nil && r0.rangeDone.Nonce == msg.Nonce && r0.rangeDone.Total == msg.Total
			r0.mu.Unlock()
			addressed := open && msg.Nonce == nonce && int(msg.From) == peer
			accepted := addressed && !msg.Done && msg.Offset <= have+buffered && have+buffered < msg.Offset+len(msg.Ops)
			completed := after.RangeCatchups > before.RangeCatchups
			refused := after.RangeRejects > before.RangeRejects || after.Faults > before.Faults
			what := fmt.Sprintf("frame %v (open=%v nonce=%d peer=%d have=%d buffered=%d memoized=%d)", fr, open, nonce, peer, have, buffered, memoized)

			// The Done chunk that decides the round: this frame, or one that
			// overtook its chunks and waited for this one.
			done := &msg
			if accepted {
				buffered = msg.Offset + len(msg.Ops) - have
				done = waiting
			}
			switch {
			case accepted:
				if refused && !(done != nil && have+buffered >= done.Total) || after.RangeChunksReceived != before.RangeChunksReceived+1 {
					t.Fatalf("%s: a chunk extending the buffer must be buffered and nothing else", what)
				}
				if completed && (done == nil || have+buffered < done.Total) {
					t.Fatalf("%s: a chunk completed a round no waiting Done chunk covers", what)
				}
			case completed:
				if !addressed || !msg.Done {
					t.Fatalf("%s: round completed on a frame that was not its Done chunk", what)
				}
			case held:
				if !msg.HasState || have+buffered >= msg.Total {
					t.Fatalf("%s: a Done chunk waits although its chunks are all in", what)
				}
			case !refused:
				t.Fatalf("%s: dropped without a RangeRejects tick or a typed fault", what)
			}
			if got := r0.Snapshot().Memoized; got != memoized {
				covered := addressed && done != nil && done.Done && done.HasState && done.Total > memoized && have+buffered >= done.Total
				if !completed || !covered || got != done.Total {
					t.Fatalf("%s: memoized moved %d -> %d without a contiguous buffer covering [Have, Total)", what, memoized, got)
				}
			}
		}
	})
}
