package core

import (
	"math"

	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// Gossip is delta-state anti-entropy with acknowledgements (Almeida,
// Shoker and Baquero, "Delta state replicated data types", JPDC 2018,
// Alg. 2). Every change to a record's R, D or S membership or to its label
// (Fig. 7) appends one entry to a change log that serves every peer. A
// frame carries the entries between log positions Base and Seq; its
// receiver keeps a watermark, the highest Seq up to which it has received
// everything, and returns it as Ack. Each entry is sent once, and resent
// only when its acknowledgement is overdue. A receiver merges only a frame
// that continues its watermark, so it holds a prefix of the sender's
// changes, as §10.4's FIFO channels gave. The log is trimmed below the
// lowest acknowledged position.
//
// An incarnation's log begins at its Epoch: the wall clock in nanoseconds
// for a new replica, the next free position after a Crash. Positions thus
// only grow, and an acknowledgement meant for an earlier incarnation falls
// below the current log.

// logKind names the frame field a change log entry fills.
type logKind uint8

const (
	logR logKind = iota // the descriptor arrived
	logL                // the label became proper or lower
	logD                // done here
	logS                // stable here
)

// logEntry is one change; its value is read when a frame is built.
type logEntry struct {
	e    *idRec
	kind logKind
}

// peerLink is a replica's state for the link with one peer. sent and
// acked are positions in this replica's log, and since is the round the
// wait for the next acknowledgement began; probing is set by a resend and
// cleared by the next acknowledgement. epoch and mark are the peer's
// incarnation and this replica's watermark in the peer's log; owed says a
// frame with content arrived since the mark was last sent.
type peerLink struct {
	sent, acked, since uint64
	probing            bool
	epoch, mark        uint64
	owed               bool
}

const (
	// maxFrameEntries bounds the entries of one frame, so the resend after
	// a long outage goes out as a run of frames below the transport's size
	// limit.
	maxFrameEntries = 1 << 14
	// probeEntries bounds a resend to a peer that acknowledged nothing
	// since the previous one: a peer that is down costs a small frame per
	// round, and a healed one acknowledges the probe and gets the rest.
	probeEntries = 64
)

// startLog begins an incarnation's change log at position epoch. Mutex held.
func (r *Replica) startLog(epoch uint64) {
	r.glog = nil
	r.epoch, r.logBase = epoch, epoch
	r.links = make([]peerLink, r.n)
	for i := range r.links {
		r.links[i] = peerLink{sent: epoch, acked: epoch}
	}
	r.ackWait, r.ackDev = 1, 0.5
}

// logNext is the position the next change log entry takes.
func (r *Replica) logNext() uint64 { return r.logBase + uint64(len(r.glog)) }

// logChange appends one change (a single replica has no peer to tell).
func (r *Replica) logChange(e *idRec, k logKind) {
	if r.n > 1 {
		r.glog = append(r.glog, logEntry{e: e, kind: k})
	}
}

// SendGossip performs one gossip round: send_rr'(⟨"gossip", ...⟩) of Fig. 7
// to every peer that is owed something, one frame each (see nextFrame). A
// peer owed nothing is sent nothing, so an idle cluster falls silent; the
// gossip interval is the gossip batch (DESIGN.md §8).
//
// A recovering replica sends no gossip. Its round repeats the open range
// request instead, for what is still missing, when the round has been
// silent for a round more than an acknowledgement takes: a peer answers a
// request at once, and the answers of repeats merge.
func (r *Replica) SendGossip() {
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return
	}
	r.round++
	type outMsg struct {
		to  transport.NodeID
		msg any
	}
	var outbox []outMsg
	if r.recovering && r.rangeNonce != 0 && r.round-r.rangeSeen > uint64(r.ackWait)+1 {
		r.rangeSeen = r.round
		outbox = append(outbox, outMsg{to: r.peers[r.rangePeer],
			msg: RangeRequestMsg{From: r.id, Have: r.rangeHave + len(r.rangeBuf), Nonce: r.rangeNonce}})
	}
	// Peers at the same positions share one frame body and encoding.
	var body GossipMsg
	var compact *CompactGossipMsg
	built := false
	for i := range r.links {
		if i == int(r.id) || r.recovering {
			continue
		}
		base, seq, ok := r.nextFrame(i)
		if !ok {
			r.metrics.GossipSuppressed++
			continue
		}
		if !built || body.Base != base || body.Seq != seq {
			body, compact, built = r.buildDelta(base, seq), nil, true
		}
		l := &r.links[i]
		l.owed = false
		r.metrics.GossipSent++
		g := body
		g.Ack = l.mark
		var msg any = g
		if r.negotiator != nil && r.negotiator.PeerFeatures(r.peers[i])&transport.FeatureCompactGossip != 0 {
			// The peer negotiated the compact wire form (DESIGN.md §12).
			if compact == nil {
				cm := encodeCompactGossip(r.id, []GossipMsg{body})
				cm.Epoch, cm.Base, cm.Seq = body.Epoch, body.Base, body.Seq
				compact = &cm
			}
			cm := *compact
			cm.Ack = l.mark
			msg = cm
			r.metrics.CompactGossipSent++
		}
		outbox = append(outbox, outMsg{to: r.peers[i], msg: msg})
	}
	r.mu.Unlock()
	// Gossip carries labels; any journaled in an admission round whose
	// group commit is still in flight must become durable before they leave
	// (the ack-after-durable invariant covers every label-carrying message,
	// not just responses). The commit is a no-op when nothing is pending.
	if len(outbox) > 0 && !r.commitStore() {
		return
	}
	for _, o := range outbox {
		r.net.Send(r.node, o.to, o.msg)
	}
}

// nextFrame decides peer i's frame this round, the log positions
// [base, seq), and records it as sent: everything after the peer's
// acknowledgement when that is overdue, else what it was not sent yet,
// else an acknowledgement only if it is owed one; ok is false when the
// peer is owed nothing. Mutex held.
func (r *Replica) nextFrame(i int) (base, seq uint64, ok bool) {
	l := &r.links[i]
	next := r.logNext()
	if l.acked == l.sent {
		l.since = r.round
	}
	switch {
	case l.acked < l.sent && r.round-l.since > r.ackTimeout():
		// Resent every round until acknowledged, so a healed link catches
		// up within a round, as under Fig. 7's full gossip (Theorem 9.4).
		r.metrics.GossipResent++
		base, seq = l.acked, min(next, l.acked+maxFrameEntries)
		if l.probing {
			seq = min(next, l.acked+probeEntries)
		}
		l.sent, l.probing = max(l.sent, seq), true
	case l.sent < next:
		base, seq = l.sent, min(next, l.sent+maxFrameEntries)
		l.sent = seq
	case l.owed:
		base, seq = next, next
	default:
		return 0, 0, false
	}
	return base, seq, true
}

// buildDelta assembles the frame body for the log positions [base, seq)
// in fresh slices and map: LiveNet hands the message over by reference.
// Mutex held.
func (r *Replica) buildDelta(base, seq uint64) GossipMsg {
	msg := GossipMsg{From: r.id, Epoch: r.epoch, Base: base, Seq: seq}
	entries := r.glog[base-r.logBase : seq-r.logBase]
	var n [logS + 1]int
	for _, le := range entries {
		n[le.kind]++
	}
	msg.R, msg.D, msg.S = make([]ops.Operation, 0, n[logR]), make([]ops.ID, 0, n[logD]), make([]ops.ID, 0, n[logS])
	if n[logL] > 0 {
		msg.L = make(map[ops.ID]label.Label, n[logL])
	}
	for _, le := range entries {
		switch e := le.e; le.kind {
		case logR:
			// A descriptor pruned since is stable here, so held everywhere.
			if x, ok := e.descriptor(); ok {
				msg.R = append(msg.R, x)
			}
		case logL:
			msg.L[e.id] = e.label
		case logD:
			msg.D = append(msg.D, e.id)
		case logS:
			msg.S = append(msg.S, e.id)
		}
	}
	return msg
}

// gossipHeaderLocked applies the header of a frame from peer from and
// reports whether its content may be merged: only when it continues the
// watermark. A done or stable entry is sound only after the entries before
// it in the sender's log: were y done at every replica while an operation
// the sender labelled below y was still unknown here, y's stability would
// fix a solid prefix that operation belongs in (Lemma 10.2). A frame past
// a gap is dropped and comes again in the resend. A Base above Seq, or an
// Ack above everything sent to the peer, comes from no honest sender: the
// frame is ignored and counted. Mutex held.
func (r *Replica) gossipHeaderLocked(from int, msg GossipMsg) bool {
	l := &r.links[from]
	if msg.Base > msg.Seq || msg.Ack > l.sent {
		r.metrics.GossipHeaderRejects++
		return false
	}
	switch {
	case msg.Epoch < l.epoch:
		return false // the peer's earlier incarnation: its Ack died with it
	case msg.Epoch > l.epoch:
		l.epoch, l.mark = msg.Epoch, msg.Epoch
	}
	if msg.Ack > l.acked {
		r.ackLocked(l, msg.Ack)
	}
	if msg.Base > l.mark {
		return false
	}
	l.mark = max(l.mark, msg.Seq)
	l.owed = l.owed || msg.Base < msg.Seq
	return true
}

// ackLocked records a peer's acknowledgement of the log up to ack: the
// rounds waited for it time the link, unless a resend made the wait
// ambiguous (Karn's rule), and the log is trimmed below the lowest
// acknowledged position. Mutex held.
func (r *Replica) ackLocked(l *peerLink, ack uint64) {
	if !l.probing {
		d := float64(r.round - l.since)
		r.ackDev += (math.Abs(d-r.ackWait) - r.ackDev) / 4
		r.ackWait += (d - r.ackWait) / 8
	}
	l.acked, l.since, l.probing = ack, r.round, false
	low := r.logNext()
	for i := range r.links {
		if i != int(r.id) {
			low = min(low, r.links[i].acked)
		}
	}
	if k := int(low - r.logBase); k > 0 {
		n := copy(r.glog, r.glog[k:])
		clear(r.glog[n:])
		r.glog, r.logBase = r.glog[:n], low
	}
}

// ackTimeout is the rounds after which an acknowledgement is overdue: the
// smoothed delay the replica observes plus four mean deviations, as TCP
// times its retransmissions (RFC 6298), and three rounds of slack for the
// two replicas' ticks.
func (r *Replica) ackTimeout() uint64 { return uint64(r.ackWait+4*r.ackDev) + 3 }

// buildTail assembles the local state from doneSeq position from on —
// descriptors, labels, done and stable ids of those operations and of the
// not-yet-done arrival queue — in label order, so receivers process
// dependencies first and commute-mode receivers can apply D in message
// order (Invariant 7.10). Pruned descriptors are omitted: pruning requires
// stability here, so every replica holds them. Mutex held.
func (r *Replica) buildTail(from int) GossipMsg {
	r.ensureSorted()
	msg := GossipMsg{From: r.id, L: make(map[ops.ID]label.Label)}
	add := func(e *idRec) {
		if x, ok := e.descriptor(); ok {
			msg.R = append(msg.R, x)
		}
		if !e.label.IsInf() {
			msg.L[e.id] = e.label
		}
	}
	for _, id := range r.doneSeq[from:] {
		e := r.ids.get(id)
		add(e)
		msg.D = append(msg.D, id)
		if e.stableAt(r.id) {
			msg.S = append(msg.S, id)
		}
	}
	for _, e := range r.rcvdQueue {
		add(e)
	}
	return msg
}

// buildFullGossip is Fig. 7's gossip as written: the whole local state
// with every known label. The range server sends it when it cannot
// snapshot, and FullGossipSize prices it. Mutex held.
func (r *Replica) buildFullGossip() GossipMsg {
	msg := r.buildTail(0)
	msg.L = r.labelSnapshot()
	return msg
}

// stableInOrder returns stable_r[r] in local label order. Mutex held,
// doneSeq sorted.
func (r *Replica) stableInOrder() []ops.ID {
	var out []ops.ID
	for _, id := range r.doneSeq {
		if r.ids.get(id).stableAt(r.id) {
			out = append(out, id)
		}
	}
	return out
}

// labelSnapshot returns the proper entries of label_r.
func (r *Replica) labelSnapshot() map[ops.ID]label.Label {
	out := make(map[ops.ID]label.Label, len(r.ids.m))
	for id, e := range r.ids.m {
		if !e.label.IsInf() {
			out[id] = e.label
		}
	}
	return out
}
