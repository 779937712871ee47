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
			addressed := open && msg.Nonce == nonce && int(msg.From) == peer
			accepted := addressed && !msg.Done && msg.Offset == have+buffered && len(msg.Ops) > 0
			completed := after.RangeCatchups > before.RangeCatchups
			refused := after.RangeRejects > before.RangeRejects || after.Faults > before.Faults
			what := fmt.Sprintf("frame %v (open=%v nonce=%d peer=%d have=%d buffered=%d memoized=%d)", fr, open, nonce, peer, have, buffered, memoized)

			switch {
			case accepted:
				if completed || refused || after.RangeChunksReceived != before.RangeChunksReceived+1 {
					t.Fatalf("%s: a contiguous chunk must be buffered and nothing else", what)
				}
			case completed:
				if !addressed || !msg.Done {
					t.Fatalf("%s: round completed on a frame that was not its Done chunk", what)
				}
			case !refused:
				t.Fatalf("%s: dropped without a RangeRejects tick or a typed fault", what)
			}
			if got := r0.Snapshot().Memoized; got != memoized {
				covered := addressed && msg.Done && msg.HasState && msg.Total > memoized && have+buffered == msg.Total
				if !completed || !covered || got != msg.Total {
					t.Fatalf("%s: memoized moved %d -> %d without a contiguous buffer covering [Have, Total)", what, memoized, got)
				}
			}
		}
	})
}
