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
// (Fig. 7) appends one entry to a change log that serves every peer — save
// a descriptor that gossip brought, which waits on the relay queue and is
// logged only if a peer may still lack it when its deadline passes
// (relayOverdue). A frame carries the entries between log positions Base
// and Seq; its receiver keeps a watermark, the highest Seq up to which it
// has received everything, and returns it as Ack. Each entry is sent once,
// and resent only when its acknowledgement is overdue. A receiver merges
// only a frame that continues its watermark, so it holds a prefix of the
// sender's changes, as §10.4's FIFO channels gave. The log is trimmed below
// the lowest acknowledged position.
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

// logEntry is one change to the record with handle h; its value is read
// when a frame is built.
type logEntry struct {
	h    uint32
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

// relayEntry is a descriptor gossip brought in the given round: the
// record with handle h.
type relayEntry struct {
	h     uint32
	round uint64
}

// logNext is the position the next change log entry takes.
func (r *Replica) logNext() uint64 { return r.logBase + uint64(len(r.glog)) }

// logChange appends one change (a single replica has no peer to tell).
// A change to an unsettled strict operation asks for a prompt send.
func (r *Replica) logChange(e *idRec, k logKind) {
	if r.n > 1 {
		r.glog = append(r.glog, logEntry{h: e.h, kind: k})
		r.strictDirty = r.strictDirty || e.has(recStrictLive)
	}
}

// relayOverdue decides the relay of every descriptor on the relay queue
// that arrived more than an acknowledgement timeout ago. Its sender logged
// it and sends it to every peer, resending until acknowledged, so Fig. 7's
// relay of everything in rcvd_r is needed only when the sender cannot: it
// crashed, or its link to a peer is down. A descriptor still held that some
// peer is not yet known to have done is therefore logged, and so relayed to
// every peer; any other is dropped — done at every replica, or pruned,
// which needs that too — since every peer holds it. Labels, done and
// stable entries are logged as they happen: a peer that learns an
// operation done before its descriptor defers it (markDoneLocal), and the
// memoized prefix waits for every deferral (advanceMemo). Mutex held.
func (r *Replica) relayOverdue() {
	timeout, k := r.ackTimeout(), 0
	for ; k < len(r.relayQueue) && r.round-r.relayQueue[k].round > timeout; k++ {
		if e := r.ids.at(r.relayQueue[k].h); e.has(recRetained) && e.done != r.all {
			r.metrics.DescriptorsRelayed++
			r.logChange(e, logR)
		}
	}
	if k > 0 {
		n := copy(r.relayQueue, r.relayQueue[k:])
		r.relayQueue = r.relayQueue[:n]
	}
}

// queueRelay puts e, a descriptor gossip brought, on the relay queue.
// Before the queue grows it drops the entries relayOverdue would drop
// whatever their age (pruned, or done at every replica), and grows only if
// that freed less than half of it: the queue holds at most twice the
// descriptors gossip brought that are not yet done everywhere, whether or
// not rounds run. Mutex held.
func (r *Replica) queueRelay(e *idRec) {
	if q := r.relayQueue; len(q) == cap(q) && len(q) > 0 {
		k := 0
		for _, x := range q {
			if y := r.ids.at(x.h); y.has(recRetained) && y.done != r.all {
				q[k], k = x, k+1
			}
		}
		if k > cap(q)/2 {
			r.relayQueue = append(make([]relayEntry, 0, 2*cap(q)), q[:k]...)
		} else {
			r.relayQueue = q[:k]
		}
	}
	r.relayQueue = append(r.relayQueue, relayEntry{h: e.h, round: r.round})
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
func (r *Replica) SendGossip() { r.sendGossip(false) }

// sendGossip is a gossip round or, with prompt, a prompt send (DESIGN.md
// §8): when a step changed the one unsettled strict operation this replica
// knows, release sends the log's unsent entries at once rather than at the
// next tick, which takes a rare strict operation's three exchanges off the
// gossip interval. The ticks still run, and with them every bound stated
// per interval. A prompt send is not a round: it leaves r.round, which
// times acknowledgements, alone, and neither resends nor sends a bare
// acknowledgement.
//
// The frames leave in the order their log ranges were assigned. Outside
// the shard runtime a tick and a delivery goroutine's prompt send can run
// at once, and a receiver drops a frame that starts past its mark, so
// without sendMu, held until release has handed the frames to the
// transport, a prompt frame overtaking a round's would wait for the
// resend, several rounds later.
func (r *Replica) sendGossip(prompt bool) {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.step(skipCrashed, func() (o outbox) {
		r.strictDirty = false // the unsent entries go now (a probed peer's at its resend)
		if !prompt {
			r.round++
			r.relayOverdue()
			r.ids.trimDescs()
			if r.recovering && r.rangeNonce != 0 && r.round-r.rangeSeen > uint64(r.ackWait)+1 {
				r.rangeSeen = r.round
				o.now = append(o.now, outMsg{to: r.peers[r.rangePeer],
					msg: RangeRequestMsg{From: r.id, Have: r.rangeHave + len(r.rangeBuf), Nonce: r.rangeNonce}})
			}
		}
		// Peers at the same positions share one frame body and encoding.
		var body GossipMsg
		var compact *CompactGossipMsg
		var compactErr error
		built := false
		for i := range r.links {
			if i == int(r.id) || r.recovering {
				continue
			}
			base, seq, ok := r.nextFrame(i, prompt)
			if !ok {
				if !prompt {
					r.metrics.GossipSuppressed++
				}
				continue
			}
			if prompt {
				r.metrics.GossipPrompt++
			}
			if !built || body.Base != base || body.Seq != seq {
				body, compact, compactErr, built = r.buildDelta(base, seq), nil, nil, true
			}
			l := &r.links[i]
			l.owed = false
			r.metrics.GossipSent++
			g := body
			g.Ack = l.mark
			var msg any = g
			if r.negotiator != nil && r.negotiator.PeerFeatures(r.peers[i])&transport.FeatureCompactGossip != 0 {
				// The peer negotiated the compact wire form (DESIGN.md §12). A
				// delta carrying an operator without a wire form goes plain.
				if compact == nil && compactErr == nil {
					var cm CompactGossipMsg
					if cm, compactErr = encodeCompactGossip(body); compactErr == nil {
						compact = &cm
					}
				}
				if compact != nil {
					cm := *compact
					cm.Ack = l.mark
					msg = cm
					r.metrics.CompactGossipSent++
				} else {
					r.metrics.CompactGossipFallbacks++
				}
			}
			// Gossip carries labels: it waits for the step's commit like
			// every label-carrying message.
			o.after = append(o.after, outMsg{to: r.peers[i], msg: msg})
		}
		return o
	})
}

// nextFrame decides peer i's frame this round, the log positions
// [base, seq), and records it as sent: everything after the peer's
// acknowledgement when that is overdue, else what it was not sent yet,
// else an acknowledgement only if it is owed one; ok is false when the
// peer is owed nothing. A prompt send takes only the middle case, and
// skips a peer being probed: it has stopped acknowledging, and the next
// round's resend reaches it. Mutex held.
func (r *Replica) nextFrame(i int, prompt bool) (base, seq uint64, ok bool) {
	l := &r.links[i]
	next := r.logNext()
	if prompt && (l.probing || l.sent == next) {
		return 0, 0, false
	}
	if l.acked == l.sent {
		l.since = r.round
	}
	switch {
	case !prompt && l.acked < l.sent && r.round-l.since > r.ackTimeout():
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

// buildDelta assembles the frame body for the log positions [base, seq).
// A label lowered twice in the range appears twice, and the receiver keeps
// the lower. Mutex held.
func (r *Replica) buildDelta(base, seq uint64) GossipMsg {
	msg := r.buildFrame(r.glog[base-r.logBase : seq-r.logBase])
	msg.Epoch, msg.Base, msg.Seq = r.epoch, base, seq
	return msg
}

// buildFrame assembles the frame fields the entries name, in their order,
// in fresh slices: LiveNet hands the message over by reference. A
// descriptor goes to R, and an identifier to D, L or S as the next of the
// field's last run when it continues it (extends), else as a new run whose
// client enters Clients the first time the frame names it. One counting
// pass over the entries' records sizes every slice, so a frame of lone
// identifiers costs what a list of them did. Mutex held.
func (r *Replica) buildFrame(entries []logEntry) GossipMsg {
	msg := GossipMsg{From: r.id}
	// refs[i] is 1 + the index in Clients of stream i's client, while the
	// frame is built; clients lists the streams Clients names.
	refs, clients := r.clientTable()
	var n [logS + 1]int
	var last [logS + 1]*idRec
	for _, le := range entries {
		k := le.kind
		if k == logR {
			n[logR]++
			continue
		}
		e := r.ids.at(le.h)
		if !extends(last[k], e, k) {
			n[k]++
			if refs[e.client] == 0 {
				clients = append(clients, e.client)
				refs[e.client] = uint32(len(clients))
			}
		}
		last[k] = e
	}
	msg.Clients = make([]string, len(clients))
	for i, c := range clients {
		msg.Clients[i] = r.ids.list[c].client
	}
	msg.R, msg.D, msg.S = make([]ops.Operation, 0, n[logR]), make([]IDRun, 0, n[logD]), make([]IDRun, 0, n[logS])
	if n[logL] > 0 {
		msg.L = make([]LabelRun, 0, n[logL])
	}
	last = [logS + 1]*idRec{}
	for _, le := range entries {
		e, k := r.ids.at(le.h), le.kind
		p := last[k]
		last[k] = e
		switch k {
		case logR:
			// A descriptor pruned since is stable here, so held everywhere.
			if x, ok := r.ids.descriptor(e); ok {
				msg.R = append(msg.R, x)
			}
		case logL:
			if i := len(msg.L) - 1; extends(p, e, k) && msg.L[i].N < math.MaxUint32 {
				msg.L[i].N++
			} else {
				msg.L = append(msg.L, LabelRun{IDRun: IDRun{Seq: e.seq, Client: refs[e.client] - 1, N: 1}, Label: e.label()})
			}
		default:
			runs := &msg.D
			if k == logS {
				runs = &msg.S
			}
			if i := len(*runs) - 1; extends(p, e, k) && (*runs)[i].N < math.MaxUint32 {
				(*runs)[i].N++
			} else {
				*runs = append(*runs, IDRun{Seq: e.seq, Client: refs[e.client] - 1, N: 1})
			}
		}
	}
	r.doneClients(clients)
	return msg
}

// clientTable returns the scratch that numbers the clients of a frame
// (buildFrame) or of a step's responses (respondPending): refs[i] is 1 +
// the index in clients of stream i, 0 for a stream not yet numbered, and
// clients is empty. doneClients empties both again. Mutex held.
func (r *Replica) clientTable() (refs, clients []uint32) {
	if d := len(r.ids.list) - len(r.clientRefs); d > 0 {
		r.clientRefs = append(r.clientRefs, make([]uint32, d)...)
	}
	return r.clientRefs, r.frameClients[:0]
}

// doneClients empties the table clientTable returned. Mutex held.
func (r *Replica) doneClients(clients []uint32) {
	for _, c := range clients {
		r.clientRefs[c] = 0
	}
	r.frameClients = clients
}

// extends reports whether e continues a run of kind k whose last record
// is p: the next sequence number of p's client and, in L, the next label
// of p's replica. Neither wraps.
func extends(p, e *idRec, k logKind) bool {
	if p == nil || e.client != p.client || e.seq != p.seq+1 || e.seq == 0 {
		return false
	}
	return k != logL || e.labeled() && p.labeled() && e.lrep == p.lrep && e.lseq == p.lseq+1 && e.lseq != 0
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
func (r *Replica) buildTail(from int) GossipMsg { return r.buildFrame(r.tailEntries(from, true)) }

// tailEntries lists buildTail's frame as change log entries, its labels
// only if labels is set. Mutex held.
func (r *Replica) tailEntries(from int, labels bool) []logEntry {
	r.ensureSorted()
	var entries []logEntry
	add := func(e *idRec) {
		entries = append(entries, logEntry{h: e.h, kind: logR})
		if labels && e.labeled() {
			entries = append(entries, logEntry{h: e.h, kind: logL})
		}
	}
	for _, h := range r.doneSeq[from:] {
		e := r.ids.at(h)
		add(e)
		entries = append(entries, logEntry{h: h, kind: logD})
		if e.stableAt(r.id) {
			entries = append(entries, logEntry{h: h, kind: logS})
		}
	}
	for _, e := range r.rcvdQueue {
		add(e)
	}
	return entries
}

// buildFullGossip is Fig. 7's gossip as written: the whole local state
// with every known label. The range server sends it when it cannot
// snapshot, and FullGossipSize prices it. Mutex held.
func (r *Replica) buildFullGossip() GossipMsg {
	entries := r.tailEntries(0, false)
	for e := range r.ids.all() {
		if e.labeled() {
			entries = append(entries, logEntry{h: e.h, kind: logL})
		}
	}
	return r.buildFrame(entries)
}

// stableInOrder returns stable_r[r] in local label order. Mutex held,
// doneSeq sorted.
func (r *Replica) stableInOrder() []ops.ID {
	var out []ops.ID
	for _, h := range r.doneSeq {
		if e := r.ids.at(h); e.stableAt(r.id) {
			out = append(out, r.ids.id(e))
		}
	}
	return out
}

// labelSnapshot returns the proper entries of label_r.
func (r *Replica) labelSnapshot() map[ops.ID]label.Label {
	out := make(map[ops.ID]label.Label, r.ids.n)
	for e := range r.ids.all() {
		if e.labeled() {
			out[r.ids.id(e)] = e.label()
		}
	}
	return out
}
