package core

import (
	"context"
	"fmt"
	"sync"
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

// TestFlusherPreservesAdaptiveLaw drives the flush pass by hand beside a
// reference front end flushed on every tick, through a scripted load of
// bursts, idle gaps, lone operations and small clusters of them. The pass
// skips front ends whose controllers have settled; the batch targets and
// the grow/shrink transitions must still match the reference tick for
// tick. A pass that hands back a non-empty set must leave a wake pending.
func TestFlusherPreservesAdaptiveLaw(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	opt := adaptiveOptions()
	build := func() *Cluster {
		// One replica, so every submission feeds the same controller, and
		// none local: the flushed batches are dropped, only the front ends'
		// controllers matter here.
		return NewCluster(ClusterConfig{Replicas: 1, DataType: dtype.Counter{}, Network: net, Options: opt, LocalReplicas: []int{}})
	}
	refCluster, setCluster := build(), build()
	defer refCluster.Close()
	defer setCluster.Close()
	ref, fe := refCluster.FrontEnd("ref"), setCluster.FrontEnd("set")

	var depths []int
	phase := func(ticks, every, depth int) {
		for i := 0; i < ticks; i++ {
			if i%every == 0 {
				depths = append(depths, depth)
			} else {
				depths = append(depths, 0)
			}
		}
	}
	phase(10, 1, 200) // burst
	phase(80, 1, 0)   // idle
	phase(200, 20, 1) // lone operations
	phase(30, 1, 5)   // moderate load
	phase(60, 1, 0)
	phase(40, 4, 2) // pairs
	phase(40, 13, 3)
	phase(30, 1, 1) // one per tick
	phase(100, 1, 0)
	phase(12, 1, 70)
	phase(150, 30, 2)

	skipped := 0
	for tick, d := range depths {
		for i := 0; i < d; i++ {
			ref.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		}
		ref.Flush()
		before := setCluster.flushPasses.Load()
		select {
		case <-setCluster.flushWake: // as a flusher would, before it ticks
		default:
		}
		if setCluster.flushPass() && len(setCluster.flushWake) == 0 {
			// A flusher that found the set empty because this pass held it
			// (FlushAll beside the flusher) is asleep now: the pass that
			// hands the set back must leave it a wake.
			t.Fatalf("tick %d: the set is non-empty and no wake is pending", tick)
		}
		if setCluster.flushPasses.Load() == before {
			skipped++
		}
		want, got := ref.Metrics(), fe.Metrics()
		if got.BatchTarget != want.BatchTarget || got.BatchGrows != want.BatchGrows || got.BatchShrinks != want.BatchShrinks {
			t.Fatalf("tick %d (depth %d): flush set gives target %d, %d grows, %d shrinks; every-tick flush gives %d, %d, %d",
				tick, d, got.BatchTarget, got.BatchGrows, got.BatchShrinks, want.BatchTarget, want.BatchGrows, want.BatchShrinks)
		}
	}
	if m := fe.Metrics(); m.BatchGrows == 0 || m.BatchShrinks == 0 {
		t.Fatalf("script exercised no transitions: %+v", m)
	}
	if skipped < len(depths)/4 {
		t.Fatalf("the pass skipped the settled front end on only %d of %d ticks", skipped, len(depths))
	}
}

// TestFlushSetConcurrentUse runs submitters, the flusher and FlushAll
// callers against one flush set at once. With no retransmission ticker, a
// partial batch the set lost track of would strand its operations, so
// every operation must still be answered; the race detector checks the
// sharing.
func TestFlushSetConcurrentUse(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	opt := adaptiveOptions()
	cluster := NewCluster(ClusterConfig{Replicas: 2, DataType: dtype.Counter{}, Network: net, Options: opt})
	defer cluster.Close()
	cluster.StartLiveBatchFlush(opt.FlushPeriod())

	stop := make(chan struct{})
	var flushers sync.WaitGroup
	flushers.Add(1)
	go func() {
		defer flushers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cluster.FlushAll()
			}
		}
	}()
	var submitters sync.WaitGroup
	for w := 0; w < 8; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			fe := cluster.FrontEnd(fmt.Sprintf("conc-%d", w))
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, _, err := fe.SubmitWaitCtx(ctx, dtype.CtrAdd{N: 1}, nil, false)
				cancel()
				if err != nil {
					t.Errorf("front end %d op %d: %v", w, i, err)
					return
				}
				if i%10 == 9 {
					time.Sleep(3 * opt.FlushPeriod()) // let the controller settle and leave the set
				}
			}
		}(w)
	}
	submitters.Wait()
	close(stop)
	flushers.Wait()
}

// TestIdleFlusherSleeps: once every front end has gone idle and its
// controllers have settled, the batch flusher stops ticking. 64 front ends
// each submit one operation and then idle; after their controllers settle,
// 50 flush periods pass without one flush pass (a flusher that ticks every
// front end every period would make 50 passes of 64 flushes).
func TestIdleFlusherSleeps(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	opt := adaptiveOptions()
	cluster := NewCluster(ClusterConfig{Replicas: 2, DataType: dtype.Counter{}, Network: net, Options: opt})
	defer cluster.Close()
	cluster.StartLiveBatchFlush(opt.FlushPeriod())

	fes := make([]*FrontEnd, 64)
	for i := range fes {
		fes[i] = cluster.FrontEnd(fmt.Sprintf("idle-%02d", i))
		if _, _, err := fes[i].SubmitWait(dtype.CtrAdd{N: 1}, nil, false); err != nil {
			t.Fatalf("front end %d: %v", i, err)
		}
	}
	settled := func() bool {
		for _, fe := range fes {
			if m := fe.Metrics(); m.BatchTarget != 1 || m.QueueDepthEWMA >= settledEWMA {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !settled(); time.Sleep(opt.FlushPeriod()) {
		if time.Now().After(deadline) {
			t.Fatal("controllers never settled")
		}
	}
	// The pass that settled the last controller may still be finishing.
	time.Sleep(2 * opt.FlushPeriod())
	passes := cluster.flushPasses.Load()
	if passes == 0 {
		t.Fatal("the flusher never ran")
	}
	time.Sleep(50 * opt.FlushPeriod())
	if idle := cluster.flushPasses.Load() - passes; idle != 0 {
		t.Fatalf("the flusher made %d passes over 50 idle periods, want 0", idle)
	}
}
