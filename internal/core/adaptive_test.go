package core

import (
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/sim"
	"esds/internal/transport"
)

// adaptiveOptions is batchOptions with the DESIGN.md §12 feedback loop on
// and a wide adaptation range.
func adaptiveOptions() Options {
	opt := DefaultOptions()
	opt.BatchSize = 64
	opt.BatchDelay = time.Millisecond
	opt.AdaptiveBatch = true
	return opt
}

// TestBatchControllerTracksLoad drives the controller through the three
// regimes its control law promises (DESIGN.md §12): sustained full-depth
// observations grow the target monotonically to the cap and never past it;
// sustained idle observations decay it monotonically to 1; and a mid-range
// load parks it at a mid-range target. Pure function of its observations —
// no clock, no randomness — so exact assertions hold.
func TestBatchControllerTracksLoad(t *testing.T) {
	const max = 64
	c := newBatchController(max)
	if c.targetNow() != max {
		t.Fatalf("cold controller target %d, want the static BatchSize %d", c.targetNow(), max)
	}

	// Idle: the target must fall monotonically and reach 1.
	prev := c.targetNow()
	for i := 0; i < 50; i++ {
		cur := c.observe(0)
		if cur > prev {
			t.Fatalf("idle observation %d grew the target %d → %d", i, prev, cur)
		}
		if cur > max {
			t.Fatalf("target %d exceeded BatchSize %d", cur, max)
		}
		prev = cur
	}
	if c.targetNow() != 1 {
		t.Fatalf("after sustained idle, target %d, want 1", c.targetNow())
	}
	if c.shrinks == 0 {
		t.Fatalf("idle decay recorded no shrink transitions")
	}

	// Saturation: deep backlogs must grow the target monotonically back to
	// the cap, and observations deeper than the cap must not push past it.
	prev = c.targetNow()
	for i := 0; i < 50; i++ {
		cur := c.observe(10 * max)
		if cur < prev {
			t.Fatalf("saturated observation %d shrank the target %d → %d", i, prev, cur)
		}
		if cur > max {
			t.Fatalf("target %d exceeded BatchSize %d", cur, max)
		}
		prev = cur
	}
	if c.targetNow() != max {
		t.Fatalf("after sustained saturation, target %d, want %d", c.targetNow(), max)
	}
	if c.grows == 0 {
		t.Fatalf("growth recorded no grow transitions")
	}

	// Mid-range: from a cold start, a steady depth of max/4 must settle at a
	// mid-range target — roughly 2·depth, big enough to amortize, small
	// enough to stay responsive. (Approaching the same depth from saturation
	// instead parks inside the ¼..¾ hysteresis band, which is the point of
	// the band: batches still ≥ quarter-full don't churn the target.)
	c2 := newBatchController(max)
	for i := 0; i < 100; i++ {
		c2.observe(max / 4)
	}
	if got := c2.targetNow(); got < max/8 || got > max/2 {
		t.Fatalf("steady depth %d settled at target %d, want within [%d, %d]",
			max/4, got, max/8, max/2)
	}
}

// TestAdaptiveFrontEndOnSimNet steps offered load through a front end on
// the deterministic simulated network: a burst phase deep enough to fill
// batches must leave the per-target controller at a high target with grow
// transitions recorded, and a long idle phase of flush ticks must decay the
// target back to 1 — without the effective target ever exceeding BatchSize.
func TestAdaptiveFrontEndOnSimNet(t *testing.T) {
	s := sim.New(7)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	opt := adaptiveOptions()
	cluster := NewCluster(ClusterConfig{
		Replicas: 2,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  opt,
	})
	cluster.StartSimGossip(s, 2*sim.Millisecond)
	defer cluster.Close()
	fe := cluster.FrontEnd("burst")

	// Burst: submissions arrive much faster than flush ticks, so size
	// triggers fire at full depth and the controller must hold a high
	// target. Submit in sim-time steps with periodic flushes, the flush
	// ticker's role on the live stack.
	for step := 0; step < 40; step++ {
		for i := 0; i < 2*opt.BatchSize; i++ {
			fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		}
		fe.Flush()
		s.RunFor(2 * sim.Millisecond)
	}
	m := fe.Metrics()
	if m.BatchTarget > opt.BatchSize {
		t.Fatalf("front-end target %d exceeded BatchSize %d", m.BatchTarget, opt.BatchSize)
	}
	if m.BatchTarget < opt.BatchSize/2 {
		t.Fatalf("under sustained burst load, target %d, want ≥ %d", m.BatchTarget, opt.BatchSize/2)
	}
	if m.QueueDepthEWMA <= 0 {
		t.Fatalf("burst load left queue-depth EWMA at %v", m.QueueDepthEWMA)
	}

	// Idle: only flush ticks, no submissions — the target must decay to 1
	// and the decay must be recorded as shrink transitions.
	for step := 0; step < 60; step++ {
		fe.Flush()
		s.RunFor(2 * sim.Millisecond)
	}
	m = fe.Metrics()
	if m.BatchTarget != 1 {
		t.Fatalf("after sustained idle, front-end target %d, want 1", m.BatchTarget)
	}
	if m.BatchShrinks == 0 {
		t.Fatalf("idle decay recorded no shrink transitions: %+v", m)
	}
}
