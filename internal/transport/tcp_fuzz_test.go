package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
)

// wireStream encodes frames the way a sender goroutine does: the
// connection preamble, then each frame on one gob stream.
func wireStream(t testing.TB, frames ...tcpFrame) []byte {
	t.Helper()
	out := bytes.Clone(tcpPreamble)
	var fb bytes.Buffer
	enc := gob.NewEncoder(&fb)
	for i := range frames {
		frame, err := encodeFrame(enc, &fb, &frames[i], defaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	return out
}

// readAll runs readFrames over data and returns what it delivered.
func readAll(data []byte, oneByte bool) ([]tcpFrame, error) {
	var r = bytes.NewReader(data)
	var got []tcpFrame
	var err error
	if oneByte {
		err = readFrames(iotest.OneByteReader(r), defaultMaxFrame, func(f tcpFrame) { got = append(got, f) })
	} else {
		err = readFrames(r, defaultMaxFrame, func(f tcpFrame) { got = append(got, f) })
	}
	return got, err
}

// TestReadFramesStopsAtFirstBadFrame puts a garbage frame between two good
// ones on a stream: the first is delivered, and nothing after the garbage.
func TestReadFramesStopsAtFirstBadFrame(t *testing.T) {
	good := wireStream(t, tcpFrame{From: "a", To: "b", Payload: "one"}, tcpFrame{From: "a", To: "b", Payload: "two"})
	split := len(wireStream(t, tcpFrame{From: "a", To: "b", Payload: "one"}))
	data := append(bytes.Clone(good[:split]), 0, 0, 0, 3, 0xff, 0xfe, 0xfd)
	data = append(data, good[split:]...)
	got, err := readAll(data, false)
	if !errors.Is(err, errMalformed) {
		t.Fatalf("garbage frame: err = %v, want malformed", err)
	}
	if len(got) != 1 || got[0].Payload != "one" {
		t.Fatalf("delivered %+v, want only the frame before the garbage", got)
	}
	if got, err := readAll(good, false); err != nil || len(got) != 2 {
		t.Fatalf("clean stream: delivered %d frames, err %v", len(got), err)
	}
}

// FuzzTCPInbound feeds arbitrary bytes to a TCP connection's inbound
// decoder, the door through which any process that can reach the listen
// port talks to a replica. Properties:
//
//   - it never panics;
//   - a rejection ends the connection, so nothing after the first
//     rejected frame is delivered (TestReadFramesStopsAtFirstBadFrame pins
//     the case), and the verdict and the frames delivered before it are the
//     same whether the bytes arrive at once or one at a time;
//   - it never allocates more than MaxFrame per frame read.
func FuzzTCPInbound(f *testing.F) {
	two := wireStream(f,
		tcpFrame{From: "fe", To: "r0", ReplyTo: "127.0.0.1:7000", Feat: 1, Payload: "request"},
		tcpFrame{From: "fe", To: "r1", ReplyTo: "127.0.0.1:7000", Subs: []uint64{5}, Payload: int64(42)})
	f.Add(two)
	f.Add(bytes.Clone(two[:len(two)-3])) // truncated inside the second frame
	f.Add(bytes.Clone(tcpPreamble))      // a connection that says nothing
	f.Add(append(bytes.Clone(tcpPreamble), 0, 0, 0, 0))
	f.Add(two[len(tcpPreamble):]) // frames without the preamble
	// A gossip frame's header: four uint64 fields a peer fills as it likes
	// (the replica, not the transport, judges them), and the same stream
	// opened with the version 2 preamble, which carried no header.
	gob.Register(gossipHeaderProbe{})
	headers := wireStream(f,
		tcpFrame{From: "r1", To: "r0", Payload: gossipHeaderProbe{From: 1, Epoch: 1 << 62, Base: 9, Seq: 5, Ack: math.MaxUint64}},
		tcpFrame{From: "r1", To: "r0", Payload: gossipHeaderProbe{From: 1, Epoch: math.MaxUint64, Base: math.MaxUint64, Seq: math.MaxUint64}})
	f.Add(headers)
	f.Add(append([]byte{'E', 'S', 'D', 'S', 0, 0, 0, 2}, headers[len(tcpPreamble):]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []tcpFrame
		var err error
		alloc := allocated(func() { got, err = readAll(data, false) })
		if budget := uint64(len(got)+1) * defaultMaxFrame; alloc > budget {
			t.Fatalf("reading %d frames from %d bytes allocated %d, budget %d", len(got), len(data), alloc, budget)
		}
		slow, slowErr := readAll(data, true)
		if errors.Is(err, errMalformed) != errors.Is(slowErr, errMalformed) || (err == nil) != (slowErr == nil) {
			t.Fatalf("verdict depends on read sizes: %v at once, %v one byte at a time", err, slowErr)
		}
		if !reflect.DeepEqual(got, slow) {
			t.Fatalf("deliveries depend on read sizes:\n at once %+v\n one byte at a time %+v", got, slow)
		}
	})
}

// gossipHeaderProbe has the shape of a gossip frame with its header.
type gossipHeaderProbe struct {
	From                  int32
	Epoch, Base, Seq, Ack uint64
}

// allocated reports the bytes the process allocated while fn ran: the least
// of three runs, so a stray background allocation cannot inflate it.
func allocated(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}
