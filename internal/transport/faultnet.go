package transport

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// FaultNet wraps a real-time transport (LiveNet or TCPNet) and makes it
// hostile: seeded, deterministic per-link latency, jitter, loss, reorder,
// and asymmetric partitions, optionally scripted as a timeline of
// partition/heal phases. It is the load lab's WAN emulator (DESIGN.md
// §11): SimNet already injects these faults under the discrete-event
// simulator, but the full-stack load-lab cells run on wall-clock
// transports where nothing previously stood between the stack and a
// perfect loopback network.
//
// Determinism: every link (from, to) owns a rand.Rand seeded from
// (Seed, from, to), and every Send consumes exactly three draws from it
// (jitter, loss, reorder) in that order — so the n-th message on a link
// always sees the same decision for a given seed, regardless of
// interleaving with other links, and PlanLink can recompute the schedule
// as a pure function for tests. Timeline phases and OverrideLoss change
// only the thresholds the draws are compared against, never the draw
// sequence, so healing a link does not desynchronise it.
//
// Fault order of application: loss is decided at SEND time (a dropped
// message consumes no timer); delay = Base + uniform[0, Jitter) is
// applied via a wall-clock timer; a message selected for reorder is held
// an extra Base+Jitter so later traffic overtakes it; partitions (phase
// blocks and SetLinkBlocked) are checked at DELIVERY time, approximating
// messages lost in flight when a partition lands — the same send-vs-
// delivery split SimNet uses.
type FaultNet struct {
	inner Network
	cfg   FaultNetConfig

	mu             sync.Mutex
	links          map[[2]NodeID]*rand.Rand
	stats          FaultStats
	phase          int // index into cfg.Timeline; -1 = no phase active
	phaseExtraLoss float64
	phaseBlock     map[[2]NodeID]bool
	manualBlock    map[[2]NodeID]bool
	overrideLoss   float64 // ≥ 0 replaces all configured loss; < 0 = off
	timers         map[uint64]*time.Timer
	nextTimer      uint64
	timelineStop   chan struct{}
	timelineDone   chan struct{}
	closed         bool
}

var _ Network = (*FaultNet)(nil)

// LinkFaults describes the steady-state hostility of one directed link.
// The zero value is a perfect link (no delay, no loss).
type LinkFaults struct {
	// Base is the fixed one-way delivery delay.
	Base time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability a message is silently dropped at send time.
	Loss float64
	// Reorder is the probability a message is held an extra Base+Jitter
	// (at least 1ms) so that messages sent after it can overtake it.
	Reorder float64
}

// Block names a directed partition: every message from a From node to a
// To node is dropped at delivery time. Asymmetric partitions — A cannot
// reach B while B still reaches A — are a single Block; list the reverse
// direction too for a full cut.
type Block struct {
	From, To []NodeID
}

// Phase is one step of a scripted fault timeline.
type Phase struct {
	// Dur is how long the phase lasts once Start has advanced to it.
	Dur time.Duration
	// ExtraLoss is added to every link's configured Loss for the phase.
	ExtraLoss float64
	// Block lists directed partitions active during the phase.
	Block []Block
}

// FaultNetConfig configures a FaultNet.
type FaultNetConfig struct {
	// Seed roots every per-link decision stream. Two FaultNets with the
	// same Seed and Faults make identical per-link decisions.
	Seed int64
	// Faults returns the steady-state faults for a directed link. nil
	// means every link is perfect (useful when only the Timeline bites).
	Faults func(from, to NodeID) LinkFaults
	// Timeline is the scripted phase sequence driven by Start. Empty
	// means no timeline; faults are steady-state only.
	Timeline []Phase
	// Repeat loops the timeline forever (a flapping partition); otherwise
	// it runs once and all phases lift.
	Repeat bool
}

// FaultStats counts what the wrapper did to traffic, distinguishing the
// injected fault kinds so tests can assert a fault actually fired.
type FaultStats struct {
	Sent             uint64 // messages offered to the wrapper
	Delivered        uint64 // messages handed to the inner transport
	LossDropped      uint64 // dropped by loss probability at send time
	PartitionDropped uint64 // dropped by a block at delivery time
	Delayed          uint64 // messages that took the timer path
	Reordered        uint64 // messages held extra for reordering
}

// FaultDecision is the deterministic fate computed for one message on a
// link: PlanLink returns these, and Send applies exactly the same ones.
type FaultDecision struct {
	Delay   time.Duration
	Drop    bool
	Reorder bool
}

// NewFaultNet wraps inner. The wrapper owns no goroutines until Start is
// called; Close stops injection but does NOT close the inner transport.
func NewFaultNet(inner Network, cfg FaultNetConfig) *FaultNet {
	return &FaultNet{
		inner:        inner,
		cfg:          cfg,
		links:        make(map[[2]NodeID]*rand.Rand),
		phase:        -1,
		manualBlock:  make(map[[2]NodeID]bool),
		overrideLoss: -1,
		timers:       make(map[uint64]*time.Timer),
	}
}

// Register implements Network by passing through to the inner transport.
func (n *FaultNet) Register(id NodeID, h Handler) { n.inner.Register(id, h) }

// RegisterInline passes through when the inner transport supports inline
// delivery and degrades to Register otherwise (inline is an optimisation,
// not a semantic). Note delayed messages reach an inline handler on a
// timer goroutine rather than the sender's.
func (n *FaultNet) RegisterInline(id NodeID, h Handler) {
	if ir, ok := n.inner.(InlineRegistrar); ok {
		ir.RegisterInline(id, h)
		return
	}
	n.inner.Register(id, h)
}

var _ InlineRegistrar = (*FaultNet)(nil)

// AnnounceFeatures forwards to the inner transport when it negotiates;
// otherwise the announcement is dropped, which leaves every PeerFeatures
// query at zero — senders then use legacy wire forms, the safe degradation.
func (n *FaultNet) AnnounceFeatures(id NodeID, features uint32) {
	if fn, ok := n.inner.(FeatureNegotiator); ok {
		fn.AnnounceFeatures(id, features)
	}
}

// PeerFeatures forwards to the inner transport (zero without one).
func (n *FaultNet) PeerFeatures(id NodeID) uint32 {
	if fn, ok := n.inner.(FeatureNegotiator); ok {
		return fn.PeerFeatures(id)
	}
	return 0
}

var _ FeatureNegotiator = (*FaultNet)(nil)

// newLinkRand derives the decision stream for a directed link. FNV-1a
// over (seed, from, to) keeps streams independent across links while
// staying reproducible across processes.
func newLinkRand(seed int64, from, to NodeID) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// decide consumes exactly three draws — jitter, loss, reorder, in that
// order — and returns the message's fate. effLoss may differ from
// lf.Loss (phases, overrides) without perturbing the draw sequence.
func decide(rng *rand.Rand, lf LinkFaults, effLoss float64) FaultDecision {
	jitterDraw := rng.Float64()
	lossDraw := rng.Float64()
	reorderDraw := rng.Float64()
	var d FaultDecision
	d.Delay = lf.Base
	if lf.Jitter > 0 {
		d.Delay += time.Duration(jitterDraw * float64(lf.Jitter))
	}
	if lossDraw < effLoss {
		d.Drop = true
		return d
	}
	if reorderDraw < lf.Reorder {
		d.Reorder = true
		hold := lf.Base + lf.Jitter
		if hold < time.Millisecond {
			hold = time.Millisecond
		}
		d.Delay += hold
	}
	return d
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// PlanLink recomputes, as a pure function, the decisions Send will make
// for the first count messages on a link under the STEADY-STATE config
// (no phases, no overrides — those shift loss thresholds at run time but
// never the underlying draws). The determinism tests compare a live run
// against this plan.
func (n *FaultNet) PlanLink(from, to NodeID, count int) []FaultDecision {
	var lf LinkFaults
	if n.cfg.Faults != nil {
		lf = n.cfg.Faults(from, to)
	}
	rng := newLinkRand(n.cfg.Seed, from, to)
	out := make([]FaultDecision, count)
	for i := range out {
		out[i] = decide(rng, lf, clamp01(lf.Loss))
	}
	return out
}

func (n *FaultNet) linkRandLocked(from, to NodeID) *rand.Rand {
	key := [2]NodeID{from, to}
	rng, ok := n.links[key]
	if !ok {
		rng = newLinkRand(n.cfg.Seed, from, to)
		n.links[key] = rng
	}
	return rng
}

func (n *FaultNet) effLossLocked(lf LinkFaults) float64 {
	if n.overrideLoss >= 0 {
		return clamp01(n.overrideLoss)
	}
	return clamp01(lf.Loss + n.phaseExtraLoss)
}

func (n *FaultNet) blockedLocked(from, to NodeID) bool {
	key := [2]NodeID{from, to}
	return n.manualBlock[key] || n.phaseBlock[key]
}

// Send implements Network.
func (n *FaultNet) Send(from, to NodeID, payload any) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.stats.Sent++
	var lf LinkFaults
	if n.cfg.Faults != nil {
		lf = n.cfg.Faults(from, to)
	}
	d := decide(n.linkRandLocked(from, to), lf, n.effLossLocked(lf))
	if d.Drop {
		n.stats.LossDropped++
		n.mu.Unlock()
		return
	}
	if d.Reorder {
		n.stats.Reordered++
	}
	if d.Delay <= 0 {
		// Perfect-link fast path: deliver inline, outside the lock (the
		// inner transport may run inline handlers on this goroutine).
		if n.blockedLocked(from, to) {
			n.stats.PartitionDropped++
			n.mu.Unlock()
			return
		}
		n.stats.Delivered++
		n.mu.Unlock()
		n.inner.Send(from, to, payload)
		return
	}
	n.stats.Delayed++
	id := n.nextTimer
	n.nextTimer++
	n.timers[id] = time.AfterFunc(d.Delay, func() {
		n.deliver(id, from, to, payload)
	})
	n.mu.Unlock()
}

func (n *FaultNet) deliver(id uint64, from, to NodeID, payload any) {
	n.mu.Lock()
	delete(n.timers, id)
	if n.closed {
		n.mu.Unlock()
		return
	}
	if n.blockedLocked(from, to) {
		n.stats.PartitionDropped++
		n.mu.Unlock()
		return
	}
	n.stats.Delivered++
	n.mu.Unlock()
	n.inner.Send(from, to, payload)
}

// Stats returns a snapshot of the fault counters.
func (n *FaultNet) Stats() FaultStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// applyPhase activates timeline phase idx (or deactivates all phases for
// idx outside the timeline). Exposed unexported so tests can step the
// script without racing wall-clock phase durations.
func (n *FaultNet) applyPhase(idx int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.applyPhaseLocked(idx)
}

func (n *FaultNet) applyPhaseLocked(idx int) {
	n.phase = idx
	n.phaseExtraLoss = 0
	n.phaseBlock = nil
	if idx < 0 || idx >= len(n.cfg.Timeline) {
		return
	}
	ph := n.cfg.Timeline[idx]
	n.phaseExtraLoss = ph.ExtraLoss
	if len(ph.Block) > 0 {
		n.phaseBlock = make(map[[2]NodeID]bool)
		for _, b := range ph.Block {
			for _, f := range b.From {
				for _, t := range b.To {
					n.phaseBlock[[2]NodeID{f, t}] = true
				}
			}
		}
	}
}

// Start begins driving the timeline: phases activate in order, each for
// its Dur, looping if Repeat. Calling Start with no timeline, or twice,
// is a no-op. Heal or Close stops the script.
func (n *FaultNet) Start() {
	n.mu.Lock()
	if n.closed || n.timelineStop != nil || len(n.cfg.Timeline) == 0 {
		n.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	n.timelineStop, n.timelineDone = stop, done
	n.mu.Unlock()
	go func() {
		defer close(done)
		for {
			for i, ph := range n.cfg.Timeline {
				n.applyPhase(i)
				timer := time.NewTimer(ph.Dur)
				select {
				case <-stop:
					timer.Stop()
					return
				case <-timer.C:
				}
			}
			if !n.cfg.Repeat {
				n.applyPhase(-1)
				return
			}
		}
	}()
}

// stopTimeline halts the script goroutine and waits for it to exit.
func (n *FaultNet) stopTimeline() {
	n.mu.Lock()
	stop, done := n.timelineStop, n.timelineDone
	n.timelineStop, n.timelineDone = nil, nil
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Heal makes the network perfect from now on: the timeline stops, all
// blocks (scripted and manual) lift, and loss is overridden to zero.
// Configured latency and jitter still apply — healing fixes reachability,
// not distance. The chaos cells call this before draining so convergence
// is a liveness property, not a race against the script.
func (n *FaultNet) Heal() {
	n.stopTimeline()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.applyPhaseLocked(-1)
	n.manualBlock = make(map[[2]NodeID]bool)
	n.overrideLoss = 0
}

// OverrideLoss replaces every link's loss probability with p; a negative
// p restores the configured per-link values.
func (n *FaultNet) OverrideLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p < 0 {
		n.overrideLoss = -1
		return
	}
	n.overrideLoss = clamp01(p)
}

// SetLinkBlocked manually blocks (or unblocks) the directed link
// from→to, independent of any timeline phase.
func (n *FaultNet) SetLinkBlocked(from, to NodeID, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if blocked {
		n.manualBlock[[2]NodeID{from, to}] = true
	} else {
		delete(n.manualBlock, [2]NodeID{from, to})
	}
}

// Close stops the timeline and cancels all in-flight delayed messages.
// It does NOT close the inner transport — the caller owns that.
func (n *FaultNet) Close() {
	n.stopTimeline()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for id, t := range n.timers {
		t.Stop()
		delete(n.timers, id)
	}
}
