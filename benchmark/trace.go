package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/stats"
	"esds/internal/transport"
)

// The traced run measures each layer from outside, at the three interfaces
// the program already exposes as seams: transport.Network (traceNet),
// core.StableStore (traceStore) and dtype.DataType (traceType). The wrappers
// forward every optional interface the program type-asserts, so a cluster
// behind them negotiates, registers inline and snapshots exactly as without
// them (trace_test.go proves it). Spans inside the replica are a later
// change (ROADMAP item 1a).

// sampleEvery is the span sampling rate: an operation's spans are kept when
// its sequence number is a multiple of it. Aggregate histograms see every
// call regardless.
const sampleEvery = 16

func sampled(id ops.ID) bool { return id.Seq%sampleEvery == 0 }

// Message kinds the seam can tell apart by payload type.
const (
	kindRequest = iota
	kindResponse
	kindGossip
	kindOther
	numKinds
)

// classify returns the payload's kind and how many operations it carries.
func classify(payload any) (kind, elems int) {
	switch p := payload.(type) {
	case core.RequestMsg:
		return kindRequest, 1
	case core.BatchRequestMsg:
		return kindRequest, len(p.Ops)
	case core.ResponseMsg:
		return kindResponse, 1
	case core.BatchResponseMsg:
		return kindResponse, len(p.Resps)
	case core.GossipMsg, core.BatchGossipMsg, core.CompactGossipMsg:
		return kindGossip, 1
	}
	return kindOther, 0
}

// eachSampledID calls fn for the sampled operation ids a request or
// response payload carries.
func eachSampledID(payload any, fn func(ops.ID)) {
	switch p := payload.(type) {
	case core.RequestMsg:
		if sampled(p.Op.ID) {
			fn(p.Op.ID)
		}
	case core.BatchRequestMsg:
		for _, x := range p.Ops {
			if sampled(x.ID) {
				fn(x.ID)
			}
		}
	case core.ResponseMsg:
		if sampled(p.ID) && p.Redirect == nil {
			fn(p.ID)
		}
	case core.BatchResponseMsg:
		for _, r := range p.Resps {
			if sampled(r.ID) && r.Redirect == nil {
				fn(r.ID)
			}
		}
	}
}

// Seam events of one sampled operation. Each keeps its first occurrence: a
// retransmitted request or a duplicate response does not move the spans of
// the copy that was answered first.
const (
	evSendRequest = iota
	evHandleRequest
	evSendResponse
	evHandleResponse
	numEvents
)

type interval struct{ start, end int64 }

type opEvents struct {
	ev      [numEvents]interval
	inline  bool // the request handler was an inline (runtime enqueue) handler
	resends int  // request sends seen after the first
}

// tracer collects what the three wrappers observe during one repetition.
// The wrappers record only while it is open: the harness opens it when the
// timed window starts and closes it when the window ends, so warm-up and
// audit traffic stay out of the totals.
type tracer struct {
	epoch time.Time
	open  atomic.Bool

	mu     sync.Mutex
	events map[ops.ID]*opEvents
	send   [numKinds]*stats.Hist // time inside Send, per frame
	frames [numKinds]uint64
	// compactFrames counts gossip frames in the negotiated compact form.
	compactFrames uint64
	elems         [numKinds]uint64 // operations carried by request/response frames
	handle        [numKinds]*stats.Hist
	enqueue       *stats.Hist // inline handlers (shard runtime): enqueue only
	busy          map[transport.NodeID]int64
	persist       *stats.Hist
	commit        *stats.Hist
	apply         *stats.Hist
}

// newTracer returns a closed tracer whose clock starts at epoch.
func newTracer(epoch time.Time) *tracer {
	t := &tracer{
		epoch:   epoch,
		events:  make(map[ops.ID]*opEvents),
		enqueue: stats.NewHist(),
		busy:    make(map[transport.NodeID]int64),
		persist: stats.NewHist(),
		commit:  stats.NewHist(),
		apply:   stats.NewHist(),
	}
	for k := range t.send {
		t.send[k] = stats.NewHist()
		t.handle[k] = stats.NewHist()
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOpen starts or stops recording; a nil tracer (untraced run) ignores it.
func (t *tracer) setOpen(open bool) {
	if t != nil {
		t.open.Store(open)
	}
}

// net, dtype and store wrap a seam, or return it untouched on an untraced
// run (nil tracer).
func (t *tracer) net(inner transport.Network) transport.Network {
	if t == nil {
		return inner
	}
	return &traceNet{inner: inner, t: t}
}

func (t *tracer) dtype(inner dtype.DataType) dtype.DataType {
	if t == nil {
		return inner
	}
	return &traceType{inner: inner, t: t}
}

func (t *tracer) store(inner core.StableStore) core.StableStore {
	if t == nil {
		return inner
	}
	return &traceStore{inner: inner, t: t}
}

// eventsOf returns a copy of what the seams saw of one operation (the zero
// value when they saw nothing).
func (t *tracer) eventsOf(id ops.ID) opEvents {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.events[id]; e != nil {
		return *e
	}
	return opEvents{}
}

// recordLocked keeps the first occurrence of an event. t.mu held.
func (t *tracer) recordLocked(id ops.ID, ev int, iv interval) *opEvents {
	e := t.events[id]
	if e == nil {
		e = &opEvents{}
		t.events[id] = e
	}
	if e.ev[ev].end == 0 {
		e.ev[ev] = iv
	} else if ev == evSendRequest {
		e.resends++
	}
	return e
}

// --- transport.Network ---

// traceNet times every Send and every handler it registers.
type traceNet struct {
	inner transport.Network
	t     *tracer
}

var (
	_ transport.Network           = (*traceNet)(nil)
	_ transport.InlineRegistrar   = (*traceNet)(nil)
	_ transport.FeatureNegotiator = (*traceNet)(nil)
	_ transport.ShardSubscriber   = (*traceNet)(nil)
	_ transport.FallbackRegistrar = (*traceNet)(nil)
)

func (n *traceNet) Send(from, to transport.NodeID, payload any) {
	t := n.t
	start := t.now()
	n.inner.Send(from, to, payload)
	if !t.open.Load() {
		return
	}
	end := t.now()
	kind, elems := classify(payload)
	t.mu.Lock()
	t.send[kind].Record(end - start)
	t.frames[kind]++
	t.elems[kind] += uint64(elems)
	if _, ok := payload.(core.CompactGossipMsg); ok {
		t.compactFrames++
	}
	switch kind {
	case kindRequest:
		eachSampledID(payload, func(id ops.ID) { t.recordLocked(id, evSendRequest, interval{start, end}) })
	case kindResponse:
		eachSampledID(payload, func(id ops.ID) { t.recordLocked(id, evSendResponse, interval{start, end}) })
	}
	t.mu.Unlock()
}

// wrapHandler times a delivery handler. An inline handler belongs to the
// shard runtime and only enqueues, so its time is core.runtime.enqueue and
// not replica busy time.
func (n *traceNet) wrapHandler(node transport.NodeID, h transport.Handler, inline bool) transport.Handler {
	t := n.t
	return func(m transport.Message) {
		start := t.now()
		h(m)
		if !t.open.Load() {
			return
		}
		end := t.now()
		kind, _ := classify(m.Payload)
		t.mu.Lock()
		if inline {
			t.enqueue.Record(end - start)
		} else {
			t.handle[kind].Record(end - start)
			t.busy[node] += end - start
		}
		switch kind {
		case kindRequest:
			eachSampledID(m.Payload, func(id ops.ID) {
				t.recordLocked(id, evHandleRequest, interval{start, end}).inline = inline
			})
		case kindResponse:
			eachSampledID(m.Payload, func(id ops.ID) { t.recordLocked(id, evHandleResponse, interval{start, end}) })
		}
		t.mu.Unlock()
	}
}

func (n *traceNet) Register(id transport.NodeID, h transport.Handler) {
	n.inner.Register(id, n.wrapHandler(id, h, false))
}

// RegisterInline passes through when the inner transport delivers inline and
// degrades to Register otherwise, as transport.FaultNet does.
func (n *traceNet) RegisterInline(id transport.NodeID, h transport.Handler) {
	if ir, ok := n.inner.(transport.InlineRegistrar); ok {
		ir.RegisterInline(id, n.wrapHandler(id, h, true))
		return
	}
	n.Register(id, h)
}

func (n *traceNet) AnnounceFeatures(id transport.NodeID, features uint32) {
	if fn, ok := n.inner.(transport.FeatureNegotiator); ok {
		fn.AnnounceFeatures(id, features)
	}
}

func (n *traceNet) PeerFeatures(id transport.NodeID) uint32 {
	if fn, ok := n.inner.(transport.FeatureNegotiator); ok {
		return fn.PeerFeatures(id)
	}
	return 0
}

func (n *traceNet) SubscribeShards(shards []int) {
	if ss, ok := n.inner.(transport.ShardSubscriber); ok {
		ss.SubscribeShards(shards)
	}
}

func (n *traceNet) RegisterFallback(h transport.Handler) {
	if fr, ok := n.inner.(transport.FallbackRegistrar); ok {
		fr.RegisterFallback(h)
	}
}

// --- core.StableStore ---

// traceStore times the journal's append calls and its commit barrier.
type traceStore struct {
	inner core.StableStore
	t     *tracer
}

var _ core.StableStore = (*traceStore)(nil)

func (s *traceStore) timed(h *stats.Hist, fn func() error) error {
	start := s.t.now()
	err := fn()
	if !s.t.open.Load() {
		return err
	}
	d := s.t.now() - start
	s.t.mu.Lock()
	h.Record(d)
	s.t.mu.Unlock()
	return err
}

func (s *traceStore) PersistLabel(id ops.ID, l label.Label) error {
	return s.timed(s.t.persist, func() error { return s.inner.PersistLabel(id, l) })
}

func (s *traceStore) PersistOp(x ops.Operation, l label.Label) error {
	return s.timed(s.t.persist, func() error { return s.inner.PersistOp(x, l) })
}

func (s *traceStore) PersistResize(rec core.ResizeRecord) error {
	return s.timed(s.t.persist, func() error { return s.inner.PersistResize(rec) })
}

func (s *traceStore) PersistKey(id ops.ID, key string) error {
	return s.timed(s.t.persist, func() error { return s.inner.PersistKey(id, key) })
}

func (s *traceStore) Commit() error {
	return s.timed(s.t.commit, s.inner.Commit)
}

func (s *traceStore) Labels() map[ops.ID]label.Label { return s.inner.Labels() }
func (s *traceStore) Ops() []ops.Operation           { return s.inner.Ops() }
func (s *traceStore) Resizes() []core.ResizeRecord   { return s.inner.Resizes() }
func (s *traceStore) Keys() map[ops.ID]string        { return s.inner.Keys() }

// --- dtype.DataType ---

// traceType times every Apply. It always offers the optional dtype
// interfaces and answers conservatively when the inner type lacks one (no
// snapshot, does not commute, not oblivious) — every built-in type has all
// three.
type traceType struct {
	inner dtype.DataType
	t     *tracer
}

var (
	_ dtype.DataType         = (*traceType)(nil)
	_ dtype.Snapshotter      = (*traceType)(nil)
	_ dtype.Commuter         = (*traceType)(nil)
	_ dtype.ObliviousChecker = (*traceType)(nil)
)

func (d *traceType) Name() string         { return d.inner.Name() }
func (d *traceType) Initial() dtype.State { return d.inner.Initial() }

func (d *traceType) Apply(s dtype.State, op dtype.Operator) (dtype.State, dtype.Value) {
	start := d.t.now()
	st, v := d.inner.Apply(s, op)
	if !d.t.open.Load() {
		return st, v
	}
	ns := d.t.now() - start
	d.t.mu.Lock()
	d.t.apply.Record(ns)
	d.t.mu.Unlock()
	return st, v
}

func (d *traceType) EncodeState(s dtype.State) ([]byte, error) {
	if sn, ok := d.inner.(dtype.Snapshotter); ok {
		return sn.EncodeState(s)
	}
	return nil, fmt.Errorf("benchmark: %s has no snapshot encoding", d.inner.Name())
}

func (d *traceType) DecodeState(data []byte) (dtype.State, error) {
	if sn, ok := d.inner.(dtype.Snapshotter); ok {
		return sn.DecodeState(data)
	}
	return nil, fmt.Errorf("benchmark: %s has no snapshot encoding", d.inner.Name())
}

func (d *traceType) Commute(op1, op2 dtype.Operator) bool {
	if c, ok := d.inner.(dtype.Commuter); ok {
		return c.Commute(op1, op2)
	}
	return false
}

func (d *traceType) Oblivious(op1, op2 dtype.Operator) bool {
	if o, ok := d.inner.(dtype.ObliviousChecker); ok {
		return o.Oblivious(op1, op2)
	}
	return false
}

// --- spans ---

// span is one timed interval of one operation. Times are nanoseconds since
// the repetition's tracer was created; Parent is the innermost span of the
// same operation that contains it ("" for the root).
type span struct {
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Self   int64  `json:"self_ns"`
}

// Span names. The wait spans are derived: they are the gaps between two seam
// events of one operation, named for the layer the operation sat in.
const (
	spanOp            = "op"
	spanGenLate       = "bench.gen_late" // open loop: due → Submit called
	spanSubmit        = "core.frontend.submit"
	spanKsSubmit      = "core.ksclient.submit"
	spanBatchWait     = "core.frontend.batch_wait"
	spanSendRequest   = "transport.send.request"
	spanTransitReq    = "transport.transit.request"
	spanHandleRequest = "core.replica.handle.request"
	spanEnqueue       = "core.runtime.enqueue"
	spanHold          = "core.replica.hold"
	spanSendResponse  = "transport.send.response"
	spanTransitResp   = "transport.transit.response"
	spanFrontHandle   = "core.frontend.handle"
)

// opSpans builds the span tree of one sampled operation from the harness's
// own timestamps (submit call, callback) and the seam events. It returns nil
// when an event is missing (the operation was answered through a path the
// seam did not see whole, e.g. a retransmission racing the first copy).
func opSpans(id ops.ID, submitName string, t0, submitStart, submitEnd, t1 int64, e opEvents) []span {
	for _, iv := range e.ev {
		if iv.end == 0 {
			return nil
		}
	}
	sq, hq := e.ev[evSendRequest], e.ev[evHandleRequest]
	sr, hr := e.ev[evSendResponse], e.ev[evHandleResponse]
	handleName := spanHandleRequest
	if e.inline {
		handleName = spanEnqueue
	}
	list := []span{
		{Name: spanOp, Start: t0, End: t1},
		{Name: spanGenLate, Start: t0, End: submitStart},
		{Name: submitName, Start: submitStart, End: submitEnd},
		{Name: spanBatchWait, Start: submitEnd, End: sq.start},
		{Name: spanSendRequest, Start: sq.start, End: sq.end},
		{Name: spanTransitReq, Start: sq.end, End: hq.start},
		{Name: handleName, Start: hq.start, End: hq.end},
		{Name: spanHold, Start: hq.end, End: sr.start},
		{Name: spanSendResponse, Start: sr.start, End: sr.end},
		{Name: spanTransitResp, Start: sr.end, End: hr.start},
		{Name: spanFrontHandle, Start: hr.start, End: hr.end},
	}
	out := list[:0]
	for _, s := range list {
		// Clip to the root: the front end's handler returns after the
		// callback that ends the operation.
		if s.Start < t0 {
			s.Start = t0
		}
		if s.End > t1 {
			s.End = t1
		}
		if s.End > s.Start || s.Name == spanOp {
			s.Op = id.String()
			out = append(out, s)
		}
	}
	assignParents(out)
	return out
}

// assignParents sets each span's parent to the innermost other span that
// contains it, and its self time to its duration minus what its direct
// children cover. Spans of one operation are sequential or nested, never
// partially overlapping, because each runs on one goroutine at a time.
func assignParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	parent := make([]int, len(spans))
	for i := range spans {
		parent[i] = -1
		for j := i - 1; j >= 0; j-- {
			if spans[j].Start <= spans[i].Start && spans[j].End >= spans[i].End {
				parent[i] = j
				break
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for i, p := range parent {
		if p >= 0 {
			spans[i].Parent = spans[p].Name
			spans[p].Self -= spans[i].End - spans[i].Start
		}
	}
	for i := range spans {
		if spans[i].Self < 0 {
			spans[i].Self = 0
		}
	}
}

// spanLedger aggregates the sampled operations' spans: a self-time histogram
// per span name, and per operation the share of the root span no child
// accounts for.
type spanLedger struct {
	self         map[string]*stats.Hist
	unattributed []float64
	resends      int
	sampledOps   int
	incomplete   int
}

func newSpanLedger() *spanLedger { return &spanLedger{self: make(map[string]*stats.Hist)} }

func (l *spanLedger) add(spans []span) {
	for _, s := range spans {
		h := l.self[s.Name]
		if h == nil {
			h = stats.NewHist()
			l.self[s.Name] = h
		}
		h.Record(s.Self)
		if s.Name == spanOp && s.End > s.Start {
			l.unattributed = append(l.unattributed, float64(s.Self)/float64(s.End-s.Start))
		}
	}
}

// encodeSpans writes spans as JSON lines.
func encodeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// isReplicaNode reports whether a node name is a replica's (see
// core.ReplicaNodeIn), for busy-time accounting.
func isReplicaNode(id transport.NodeID) bool {
	return strings.Contains(string(id), "replica:")
}
