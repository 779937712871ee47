package main

import (
	"testing"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
)

// drive submits n adds through one client of a deployment and waits for
// them all.
func drive(t *testing.T, d *deployment, client string, object string, n int) {
	t.Helper()
	s := &submitter{fe: d.client(client), epoch: time.Now(), window: make(chan struct{}, 64)}
	recs := make([]opRec, n)
	for i := range recs {
		recs[i].op, recs[i].readBack = d.wrap(object, dtype.CtrAdd{N: 1}), -1
		s.submit(&recs[i])
	}
	if !waitTimeout(&s.wg, 20*time.Second) {
		t.Fatalf("%d operations unanswered", n)
	}
}

func sumMetrics(d *deployment) core.ReplicaMetrics {
	var m core.ReplicaMetrics
	for _, r := range d.replicas() {
		m.Add(r.Metrics())
	}
	return m
}

// TestWrappersKeepTheSystemTheSame proves that a cluster behind the three
// seam wrappers is the system the untraced run measures: it still negotiates
// compact gossip through the wrapped network (FeatureNegotiator), still runs
// commute mode on the wrapped data type, and still journals through the
// wrapped store.
func TestWrappersKeepTheSystemTheSame(t *testing.T) {
	tr := newTracer(time.Now())
	tr.setOpen(true)
	d, err := buildTCP(tcpOptions(), dtype.Counter{}, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	drive(t, d, "w0", "", 3000)
	// Stability (and with it the last gossip flushes) trails the responses.
	deadline := time.Now().Add(10 * time.Second)
	for !quiescent(d.groups[0]) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m := sumMetrics(d)
	if m.CompactGossipSent == 0 {
		t.Error("no compact gossip behind traceNet: feature negotiation is not forwarded")
	}
	if m.AppliesForCurrentState == 0 || m.AppliesForResponse != 0 {
		t.Errorf("commute mode changed behind traceType: current-state applies %d, response applies %d",
			m.AppliesForCurrentState, m.AppliesForResponse)
	}
	if syncs, records := d.stores[0].Syncs(); syncs == 0 || records == 0 {
		t.Errorf("journal behind traceStore saw %d records in %d syncs", records, syncs)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.apply.Count() == 0 || tr.persist.Count() == 0 || tr.commit.Count() == 0 {
		t.Errorf("wrappers saw %d applies, %d journal appends, %d commits; want all > 0",
			tr.apply.Count(), tr.persist.Count(), tr.commit.Count())
	}
	if tr.compactFrames == 0 || tr.frames[kindRequest] == 0 || tr.frames[kindResponse] == 0 {
		t.Errorf("traceNet saw %d compact gossip, %d request, %d response frames; want all > 0",
			tr.compactFrames, tr.frames[kindRequest], tr.frames[kindResponse])
	}
}

// TestWrappersKeepInlineRegistration proves the shard runtime still
// registers its replicas inline through traceNet (InlineRegistrar): requests
// reach an enqueue-only inline handler and never a mailbox handler, and the
// runtime folds them into pipeline runs.
func TestWrappersKeepInlineRegistration(t *testing.T) {
	tr := newTracer(time.Now())
	tr.setOpen(true)
	d := buildKeyspace(batchedOptions(), dtype.Counter{}, tr)
	defer d.close()
	drive(t, d, "s00", openSpecs["keyspace_openloop"].objectName(0, 0), 500)
	if sumMetrics(d).PipelineRuns == 0 {
		t.Error("the shard runtime folded no pipeline runs")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.enqueue.Count() == 0 {
		t.Error("no inline deliveries behind traceNet: InlineRegistrar is not forwarded")
	}
	if n := tr.handle[kindRequest].Count(); n != 0 {
		t.Errorf("%d requests went through a mailbox handler; under the shard runtime every replica registers inline", n)
	}
}

// TestTraceTypeForwardsOptionalInterfaces checks the wrapped type answers
// the optional dtype interfaces as its inner type does, which the keyed lift
// and snapshot recovery rely on.
func TestTraceTypeForwardsOptionalInterfaces(t *testing.T) {
	wrapped := newTracer(time.Now()).dtype(dtype.Counter{})
	if !dtype.CanSnapshot(dtype.NewKeyed(wrapped)) {
		t.Error("a keyed lift of the wrapped counter cannot snapshot")
	}
	enc, err := wrapped.(dtype.Snapshotter).EncodeState(int64(42))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := wrapped.(dtype.Snapshotter).DecodeState(enc); err != nil || st != int64(42) {
		t.Errorf("snapshot round trip gave %v, %v", st, err)
	}
	add, read := dtype.CtrAdd{N: 1}, dtype.CtrRead{}
	if !dtype.Independent(wrapped, add, add) || dtype.Independent(wrapped, read, add) {
		t.Error("the wrapped counter's commutativity differs from the counter's")
	}
}
