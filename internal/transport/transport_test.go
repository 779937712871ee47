package transport

import (
	"sync"
	"testing"

	"esds/internal/sim"
)

func TestSimNetDelivery(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{Latency: FixedLatency(5 * sim.Millisecond)})
	var got []Message
	net.Register("b", func(m Message) { got = append(got, m) })
	net.Send("a", "b", "hello")
	s.Run(0)
	if len(got) != 1 || got[0].Payload != "hello" || got[0].From != "a" || got[0].To != "b" {
		t.Fatalf("got = %v", got)
	}
	if s.Now() != sim.Time(5*sim.Millisecond) {
		t.Fatalf("delivered at %v, want 5ms", s.Now())
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimNetUnregisteredDrops(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{})
	net.Send("a", "ghost", 1)
	s.Run(0)
	if st := net.Stats(); st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimNetDoubleRegisterPanics(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{})
	net.Register("a", func(Message) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	net.Register("a", func(Message) {})
}

func TestSimNetNilHandlerPanics(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	net.Register("a", nil)
}

func TestSimNetDrop(t *testing.T) {
	s := sim.New(7)
	net := NewSimNet(s, SimNetConfig{DropProb: 1.0})
	net.Register("b", func(Message) { t.Fatal("dropped message delivered") })
	for i := 0; i < 10; i++ {
		net.Send("a", "b", i)
	}
	s.Run(0)
	if st := net.Stats(); st.Dropped != 10 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimNetDuplicate(t *testing.T) {
	s := sim.New(7)
	net := NewSimNet(s, SimNetConfig{DupProb: 1.0})
	count := 0
	net.Register("b", func(Message) { count++ })
	net.Send("a", "b", 1)
	s.Run(0)
	if count != 2 {
		t.Fatalf("deliveries = %d, want 2", count)
	}
	if st := net.Stats(); st.Duplicated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimNetNodeDownAndLinkDown(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{})
	count := 0
	net.Register("b", func(Message) { count++ })

	net.SetNodeDown("b", true)
	net.Send("a", "b", 1)
	s.Run(0)
	if count != 0 {
		t.Fatal("message delivered to downed node")
	}
	net.SetNodeDown("b", false)
	net.Send("a", "b", 2)
	s.Run(0)
	if count != 1 {
		t.Fatal("message not delivered after node restart")
	}

	net.SetLinkDown("a", "b", true)
	net.Send("a", "b", 3)
	net.Send("c", "b", 4) // other link unaffected
	s.Run(0)
	if count != 2 {
		t.Fatalf("count = %d, want 2 (directed link down)", count)
	}
	net.SetLinkDown("a", "b", false)
	net.Send("a", "b", 5)
	s.Run(0)
	if count != 3 {
		t.Fatal("message not delivered after link heal")
	}
}

func TestSimNetPartitionBetween(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{})
	delivered := make(map[NodeID]int)
	for _, id := range []NodeID{"a", "b", "c"} {
		id := id
		net.Register(id, func(Message) { delivered[id]++ })
	}
	net.PartitionBetween([]NodeID{"a"}, []NodeID{"b", "c"}, false)
	net.Send("a", "b", 1)
	net.Send("b", "a", 1)
	net.Send("b", "c", 1) // same side: unaffected
	s.Run(0)
	if delivered["b"] != 0 || delivered["a"] != 0 || delivered["c"] != 1 {
		t.Fatalf("delivered = %v", delivered)
	}
	net.PartitionBetween([]NodeID{"a"}, []NodeID{"b", "c"}, true)
	net.Send("a", "b", 2)
	s.Run(0)
	if delivered["b"] != 1 {
		t.Fatal("heal did not restore the link")
	}
}

// Messages in flight when a partition starts are lost (delivery-time check).
func TestSimNetInFlightLoss(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{Latency: FixedLatency(10 * sim.Millisecond)})
	count := 0
	net.Register("b", func(Message) { count++ })
	net.Send("a", "b", 1)
	s.Schedule(5*sim.Millisecond, func() { net.SetLinkDown("a", "b", true) })
	s.Run(0)
	if count != 0 {
		t.Fatal("in-flight message survived the partition")
	}
}

func TestSimNetNonFIFO(t *testing.T) {
	// With uniform latency, a later send can arrive earlier — the paper
	// explicitly does not assume FIFO channels.
	s := sim.New(3)
	net := NewSimNet(s, SimNetConfig{Latency: UniformLatency(1*sim.Millisecond, 50*sim.Millisecond)})
	var got []int
	net.Register("b", func(m Message) { got = append(got, m.Payload.(int)) })
	for i := 0; i < 50; i++ {
		net.Send("a", "b", i)
	}
	s.Run(0)
	if len(got) != 50 {
		t.Fatalf("delivered %d", len(got))
	}
	reordered := false
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatal("expected at least one reordering with 50 jittered sends")
	}
}

func TestSimNetBytesSizer(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, SimNetConfig{Sizer: func(p any) int { return len(p.(string)) }})
	net.Register("b", func(Message) {})
	net.Send("a", "b", "12345")
	if st := net.Stats(); st.Bytes != 5 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

func TestUniformLatencyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for min > max")
		}
	}()
	UniformLatency(5, 1)
}

func TestUniformLatencyRange(t *testing.T) {
	s := sim.New(9)
	f := UniformLatency(2*sim.Millisecond, 4*sim.Millisecond)
	for i := 0; i < 100; i++ {
		d := f("a", "b", s.Rand())
		if d < 2*sim.Millisecond || d > 4*sim.Millisecond {
			t.Fatalf("latency %v out of range", d)
		}
	}
	g := UniformLatency(3*sim.Millisecond, 3*sim.Millisecond)
	if got := g("a", "b", s.Rand()); got != 3*sim.Millisecond {
		t.Fatalf("degenerate range gave %v", got)
	}
}

func TestClassLatency(t *testing.T) {
	isReplica := func(id NodeID) bool { return id == "r1" || id == "r2" }
	f := ClassLatency(isReplica, FixedLatency(1*sim.Millisecond), FixedLatency(9*sim.Millisecond))
	if f("r1", "r2", nil) != 9*sim.Millisecond {
		t.Error("replica-replica should use dg")
	}
	if f("fe", "r1", nil) != 1*sim.Millisecond {
		t.Error("frontend-replica should use df")
	}
	if f("r1", "fe", nil) != 1*sim.Millisecond {
		t.Error("replica-frontend should use df")
	}
}

func TestLiveNetDelivery(t *testing.T) {
	net := NewLiveNet()
	var mu sync.Mutex
	got := make(map[int]bool)
	done := make(chan struct{}, 1)
	const total = 100
	net.Register("b", func(m Message) {
		mu.Lock()
		got[m.Payload.(int)] = true
		n := len(got)
		mu.Unlock()
		if n == total {
			done <- struct{}{}
		}
	})
	for i := 0; i < total; i++ {
		net.Send("a", "b", i)
	}
	<-done
	net.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
}

// TestInProcessTransportsDoNotNegotiate pins that only a transport with a
// wire negotiates wire features: LiveNet and SimNet carry payloads by
// reference, so a replica on one must never spend CPU on the compact gossip
// encoding — and never see a peer announce it.
func TestInProcessTransportsDoNotNegotiate(t *testing.T) {
	live := NewLiveNet()
	defer live.Close()
	if _, ok := any(live).(FeatureNegotiator); ok {
		t.Error("LiveNet implements FeatureNegotiator")
	}
	if _, ok := any(NewSimNet(sim.New(1), SimNetConfig{})).(FeatureNegotiator); ok {
		t.Error("SimNet implements FeatureNegotiator")
	}
}

func TestLiveNetBidirectionalNoDeadlock(t *testing.T) {
	// Two nodes that respond to every message with another message; Send
	// from within a handler must not deadlock. Bounded ping-pong.
	net := NewLiveNet()
	done := make(chan struct{}, 1)
	net.Register("a", func(m Message) {
		n := m.Payload.(int)
		if n > 0 {
			net.Send("a", "b", n-1)
		} else {
			done <- struct{}{}
		}
	})
	net.Register("b", func(m Message) {
		net.Send("b", "a", m.Payload.(int)-1)
	})
	net.Send("x", "b", 100)
	<-done
	net.Close()
}

func TestLiveNetCloseIdempotentAndSendAfterClose(t *testing.T) {
	net := NewLiveNet()
	net.Register("a", func(Message) {})
	net.Close()
	net.Close()           // idempotent
	net.Send("x", "a", 1) // dropped silently
	if st := net.Stats(); st.Sent != 0 {
		t.Fatalf("send after close counted: %+v", st)
	}
}

func TestLiveNetUnregisteredDrops(t *testing.T) {
	net := NewLiveNet()
	defer net.Close()
	net.Send("a", "ghost", 1) // must not panic or block
	if st := net.Stats(); st.Sent != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLiveNetDoubleRegisterPanics(t *testing.T) {
	net := NewLiveNet()
	defer net.Close()
	net.Register("a", func(Message) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	net.Register("a", func(Message) {})
}
