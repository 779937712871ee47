package main

import (
	"fmt"
	"runtime"
	"time"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/ring"
)

// Isolated probes of the leaf layers: tight loops of at least a million
// iterations over the calls the replica makes per operation, reported as
// nanoseconds per call with allocations per call logged beside them.

const defaultProbeIters = 1 << 20

// probeSink keeps the compiler from discarding a probe's work.
var probeSink any

// probe times f over iters iterations.
func probe(rc *runConfig, name string, iters int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f(i)
	}
	ns := float64(time.Since(start)) / float64(iters)
	runtime.ReadMemStats(&after)
	rc.logf("  probe %-22s %8.1f ns/call  %.2f allocs/call  (%d iterations)",
		name, ns, float64(after.Mallocs-before.Mallocs)/float64(iters), iters)
	return ns
}

// runProbes returns the probe metrics. A workload with named objects (the
// keyspace) also probes the ring over its object names and Keyed.Apply on a
// state holding one shard's share of them.
func runProbes(rc *runConfig, spec openSpec) map[string]float64 {
	out := make(map[string]float64)

	gen := label.NewGenerator(1)
	out["label.next_ns"] = probe(rc, "label.next_ns", rc.probeIters, func(int) { probeSink = gen.Next() })

	ids := make([]ops.ID, 4096)
	for i := range ids {
		ids[i] = ops.ID{Client: fmt.Sprintf("w%d", i%2), Seq: uint64(i)}
	}
	lm := label.NewMap()
	out["label.setmin_ns"] = probe(rc, "label.setmin_ns", rc.probeIters, func(i int) {
		lm.SetMin(ids[i%len(ids)], label.Make(uint64(rc.probeIters-i), label.ReplicaID(i%3)))
	})
	out["label.compare_ns"] = probe(rc, "label.compare_ns", rc.probeIters, func(i int) {
		probeSink = lm.Compare(ids[i%len(ids)], ids[(i*7+1)%len(ids)])
	})
	out["ops.new_ns"] = probe(rc, "ops.new_ns", rc.probeIters, func(i int) {
		probeSink = ops.New(dtype.CtrAdd{N: 1}, ids[i%len(ids)], nil, false)
	})

	if spec.objects > 0 {
		objects := spec.objectNames()
		rg := ring.New(keyspaceShards)
		out["ring.shardof_ns"] = probe(rc, "ring.shardof_ns", rc.probeIters, func(i int) { probeSink = rg.ShardOf(objects[i%len(objects)]) })

		keyed := dtype.NewKeyed(dtype.Counter{})
		state := keyed.Initial()
		names := objects[:len(objects)/keyspaceShards]
		for _, name := range names {
			state, _ = keyed.Apply(state, dtype.KeyedOp{Key: name, Op: dtype.CtrAdd{N: 1}})
		}
		// One call copies the whole object map (microseconds, not
		// nanoseconds), so this probe runs a sixteenth of the iterations.
		out["dtype.keyed_apply_ns"] = probe(rc, "dtype.keyed_apply_ns", rc.probeIters/16, func(i int) {
			probeSink, _ = keyed.Apply(state, dtype.KeyedOp{Key: names[i%len(names)], Op: dtype.CtrAdd{N: 1}})
		})
	}
	return out
}
