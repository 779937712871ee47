package core

// Adaptive batch controller (DESIGN.md §12): a per-target feedback loop
// that moves the effective batch target inside [1, Options.BatchSize] from
// the queue depth observed at each flush opportunity, replacing the static
// sweet spot the E12 sweep showed moves with offered load. One controller
// instance guards one flush point — a front end's per-replica submission
// buffer — and is driven exclusively by observe calls made under that
// owner's mutex, so it needs no locking of its own.
//
// The control law is deliberately tiny and deterministic (no wall clock, no
// randomness — the SimNet tests replay it exactly):
//
//	ewma   ← (1-α)·ewma + α·depth      with α = 1/4
//	grow   when ewma ≥ ¾·target and target < max:  target ← min(2·target, max)
//	shrink when ewma < ¼·target and target > 1:    target ← max(target/2, 1)
//
// where depth is the number of elements buffered at a flush opportunity
// (a size-triggered flush observes a full buffer and pushes the EWMA up; an
// age-triggered flush of a partial batch, or an idle tick observing zero,
// pulls it down). The thresholds matter: a size-triggered flush fires at
// exactly the target, so observed depth never EXCEEDS it — a grow condition
// of ewma ≥ target would be asymptotically unreachable and the target could
// only ratchet down. Growing at ¾·target means "batches run ≥ three-quarters
// full, try doubling", which settles the steady state at roughly twice the
// observed depth — headroom for bursts — while the ¼·target shrink bound
// leaves a wide hysteresis band (¼..¾) where the target holds still.
// Doubling/halving reaches any point of the range in O(log max)
// observations, and an idle stream decays to 1 — restoring the unbatched
// latency profile — in O(log max) idle ticks.
type batchController struct {
	max    int     // Options.BatchSize, the hard ceiling
	target int     // current effective batch target, in [1, max]
	ewma   float64 // queue-depth EWMA over flush-opportunity samples

	grows   uint64 // target doublings
	shrinks uint64 // target halvings
}

// ewmaAlpha is the EWMA smoothing factor: 1/4 reacts within a few flush
// opportunities without chasing single-tick noise. growFrac/shrinkFrac are
// the hysteresis band bounds described above.
const (
	ewmaAlpha  = 0.25
	growFrac   = 0.75
	shrinkFrac = 0.25
)

// newBatchController starts at the full static target: a freshly started
// system behaves exactly like the static configuration until observations
// argue otherwise, so enabling AdaptiveBatch can never slow a cold start.
func newBatchController(max int) *batchController {
	if max < 1 {
		max = 1
	}
	return &batchController{max: max, target: max}
}

// observe folds one queue-depth sample into the EWMA and adjusts the
// target. Call at every flush opportunity — size-triggered flushes, age
// (ticker) flushes, and idle ticks with depth 0 — and at most once per
// opportunity, so the decay rate is tied to flush cadence, not caller
// whim. It returns the target in force AFTER the adjustment.
func (c *batchController) observe(depth int) int {
	if depth > c.max {
		depth = c.max // a backlog deeper than max cannot argue past the cap
	}
	c.ewma = (1-ewmaAlpha)*c.ewma + ewmaAlpha*float64(depth)
	switch {
	case c.ewma >= growFrac*float64(c.target) && c.target < c.max:
		c.target *= 2
		if c.target > c.max {
			c.target = c.max
		}
		c.grows++
	case c.ewma < shrinkFrac*float64(c.target) && c.target > 1:
		c.target /= 2
		if c.target < 1 {
			c.target = 1
		}
		c.shrinks++
	}
	return c.target
}

// targetNow returns the current effective batch target without observing.
func (c *batchController) targetNow() int { return c.target }

// settledEWMA is the EWMA below which a controller at target 1 is settled.
const settledEWMA = 1.0 / 64

// settled reports whether the controller has decayed as far as idle ticks
// can matter, so a flusher may stop observing zero for it (DESIGN.md §12).
// At target 1 only a grow can fire, when ¾·ewma + ¼·depth ≥ ¾: for an
// integer depth that holds (depth ≥ 3) or fails (depth ≤ 2) alike for
// every ewma < ⅓, so the decay a skipped idle tick would have applied
// cannot change the next decision. What it leaves behind is a residual of
// under ¾·settledEWMA in the EWMA after that observation, shrinking by ¾
// with each one after it.
func (c *batchController) settled() bool { return c.target == 1 && c.ewma < settledEWMA }
