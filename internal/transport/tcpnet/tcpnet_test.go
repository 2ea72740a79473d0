package tcpnet

import (
	"errors"
	"net"
	"testing"
	"time"

	"newtop/internal/obs"
	"newtop/internal/transport"
	"newtop/internal/types"
	"newtop/internal/wire"
)

// newPair starts two endpoints on loopback that know each other's address,
// each counting into its own registry.
func newPair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	a, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Self: 2, ListenAddr: "127.0.0.1:0", Metrics: obs.NewRegistry()})
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	a.cfg.Peers = map[types.ProcessID]string{2: b.Addr()}
	b.cfg.Peers = map[types.ProcessID]string{1: a.Addr()}
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

// counter reads one of ep's registry counters.
func counter(ep *Endpoint, name string) uint64 {
	return ep.cfg.Metrics.Counter(name).Value()
}

func msg(sender types.ProcessID, seq uint64, payload string) *types.Message {
	return &types.Message{
		Kind: types.KindData, Group: 1, Sender: sender, Origin: sender,
		Num: types.MsgNum(seq), Seq: seq, Payload: []byte(payload),
	}
}

// recvOne receives one message as a well-behaved consumer: it seals the
// message (Own) and hands the transport its buffer back (Release) before
// returning, so the returned message is safe to inspect at leisure.
func recvOne(t *testing.T, ep transport.Endpoint) transport.Inbound {
	t.Helper()
	select {
	case in, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		in.Msg.Own()
		in.Release()
		return in
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return transport.Inbound{}
}

func TestRoundTripOverTCP(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(2, msg(1, 1, "hello over tcp")); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, b)
	if in.From != 1 {
		t.Errorf("From = %v, want P1", in.From)
	}
	if string(in.Msg.Payload) != "hello over tcp" {
		t.Errorf("payload = %q", in.Msg.Payload)
	}
	// And the reverse direction.
	if err := b.Send(1, msg(2, 1, "reply")); err != nil {
		t.Fatal(err)
	}
	in = recvOne(t, a)
	if in.From != 2 || string(in.Msg.Payload) != "reply" {
		t.Errorf("reply got %v from %v", in.Msg, in.From)
	}
}

func TestFIFOOverTCP(t *testing.T) {
	a, b := newPair(t)
	const count = 500
	for i := 1; i <= count; i++ {
		if err := a.Send(2, msg(1, uint64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= count; i++ {
		in := recvOne(t, b)
		if in.Msg.Seq != uint64(i) {
			t.Fatalf("out of order: got %d, want %d", in.Msg.Seq, i)
		}
	}
}

func TestSelfSendShortCircuits(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Send(1, msg(1, 7, "self")); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, a)
	if in.From != 1 || in.Msg.Seq != 7 {
		t.Errorf("self delivery got %v", in.Msg)
	}
}

func TestUnknownPeer(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Send(42, msg(1, 1, "x")); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	a, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Peers: map[types.ProcessID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, msg(1, 1, "x")); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestUnreachablePeerDropsSilently(t *testing.T) {
	a, err := New(Config{
		Self:        1,
		ListenAddr:  "127.0.0.1:0",
		Peers:       map[types.ProcessID]string{2: "127.0.0.1:1"}, // nothing listening
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	// Sends succeed (async loss semantics), nothing is delivered anywhere,
	// and Close does not hang on the failed dials.
	for i := 0; i < 5; i++ {
		if err := a.Send(2, msg(1, uint64(i+1), "lost")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
}

func TestPeerRestartReconnects(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(2, msg(1, 1, "first")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)

	// Kill b's endpoint; messages to it are lost while it is down.
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_ = a.Send(2, msg(1, 2, "lost"))
	time.Sleep(100 * time.Millisecond)

	// Restart b on the same address.
	b2, err := New(Config{Self: 2, ListenAddr: addr, Peers: map[types.ProcessID]string{1: a.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()

	// Eventually a fresh send gets through on a new connection.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, msg(1, 3, "after restart")); err != nil {
			t.Fatal(err)
		}
		select {
		case in := <-b2.Recv():
			ok := string(in.Msg.Payload) == "after restart"
			in.Release()
			if ok {
				return
			}
		case <-time.After(200 * time.Millisecond):
		}
	}
	t.Fatal("no message delivered after peer restart")
}

func TestBurstCoalescesIntoFewWrites(t *testing.T) {
	// No flush wait: the burst queues while the first write is in
	// flight and rides in the next one.
	a, b := newPair(t)
	const count = 200
	for i := 1; i <= count; i++ {
		if err := a.Send(2, msg(1, uint64(i), "burst")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= count; i++ {
		in := recvOne(t, b)
		if in.Msg.Seq != uint64(i) {
			t.Fatalf("out of order under batching: got %d, want %d", in.Msg.Seq, i)
		}
	}
	// The sender counts a batch after its write returns, so the receiver
	// can see every frame before the last batch is counted: wait for it.
	frames := counter(a, "newtop_tcpnet_frames_sent_total")
	for deadline := time.Now().Add(10 * time.Second); frames != count && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		frames = counter(a, "newtop_tcpnet_frames_sent_total")
	}
	writes := counter(a, "newtop_tcpnet_batch_writes_total")
	if frames != count {
		t.Fatalf("framesSent = %d, want %d", frames, count)
	}
	if writes >= count/2 {
		t.Fatalf("burst of %d messages took %d writes — batching not effective", count, writes)
	}
	t.Logf("batching: %d frames in %d writes (%.1f frames/write)", frames, writes, float64(frames)/float64(writes))
}

// TestLoneSendDeliveredWithoutWait: a single message is written as soon
// as the sender wakes, without waiting for a burst to join it.
func TestLoneSendDeliveredWithoutWait(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(2, msg(1, 1, "immediate")); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, b)
	if string(in.Msg.Payload) != "immediate" {
		t.Fatalf("payload = %q", in.Msg.Payload)
	}
}

func TestAppendFrameMatchesBorrowedParse(t *testing.T) {
	// A multi-frame batch buffer must parse back into the same messages
	// through the zero-copy path: frameSize to walk the framing,
	// UnmarshalBorrowed to decode each body in place.
	msgs := []*types.Message{msg(1, 1, "first"), msg(1, 2, ""), msg(1, 3, "third, longer payload")}
	var buf []byte
	for _, m := range msgs {
		buf = appendFrame(buf, m)
	}
	for _, want := range msgs {
		total := frameSize(buf)
		if total == 0 {
			t.Fatal("incomplete frame header in a complete batch")
		}
		got, err := wire.UnmarshalBorrowed(buf[4:total])
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != want.Seq || string(got.Payload) != string(want.Payload) {
			t.Fatalf("frame mismatch: %v vs %v", got, want)
		}
		buf = buf[total:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after parsing the batch", len(buf))
	}
}

func TestManyMessagesBothWays(t *testing.T) {
	a, b := newPair(t)
	const count = 200
	go func() {
		for i := 1; i <= count; i++ {
			_ = a.Send(2, msg(1, uint64(i), "a->b"))
		}
	}()
	go func() {
		for i := 1; i <= count; i++ {
			_ = b.Send(1, msg(2, uint64(i), "b->a"))
		}
	}()
	for i := 1; i <= count; i++ {
		in := recvOne(t, b)
		if in.Msg.Seq != uint64(i) {
			t.Fatalf("b: out of order %d vs %d", in.Msg.Seq, i)
		}
	}
	for i := 1; i <= count; i++ {
		in := recvOne(t, a)
		if in.Msg.Seq != uint64(i) {
			t.Fatalf("a: out of order %d vs %d", in.Msg.Seq, i)
		}
	}
}

// TestDialBackoffBoundsAttempts pins the dead-peer cost: while a peer is
// unreachable, the sender makes one dial attempt per backoff window and
// drops batches drained meanwhile without touching the network — instead
// of paying a fresh blocking dial per drained burst.
func TestDialBackoffBoundsAttempts(t *testing.T) {
	// Reserve a port with nothing behind it (fast connection-refused).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()

	const backoff = 400 * time.Millisecond
	a, err := New(Config{
		Self:        1,
		ListenAddr:  "127.0.0.1:0",
		Peers:       map[types.ProcessID]string{2: deadAddr},
		DialTimeout: 200 * time.Millisecond,
		DialBackoff: backoff,
		Metrics:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	// Many separate bursts over ~250ms — nominally within the first
	// backoff window. Loaded runners stretch the sleeps, so the
	// assertion bounds attempts by the time that actually elapsed: one
	// initial dial plus one per backoff window is legitimate; one per
	// burst (the pre-fix behaviour, ~50) is the bug.
	start := time.Now()
	bursts := 0
	for time.Since(start) < 250*time.Millisecond && bursts < 50 {
		bursts++
		if err := a.Send(2, msg(1, uint64(bursts), "down")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)
	attempts := counter(a, "newtop_tcpnet_dial_attempts_total")
	failures := counter(a, "newtop_tcpnet_dial_failures_total")
	if allowed := uint64(2 + elapsed/backoff); attempts > allowed {
		t.Fatalf("dead peer cost %d dial attempts across %d bursts in %v, want <= %d",
			attempts, bursts, elapsed, allowed)
	}
	if failures != attempts {
		t.Fatalf("attempts=%d failures=%d, want all failed", attempts, failures)
	}

	// Recovery: bring the peer up; after the backoff window passes, a
	// fresh burst dials again and gets through.
	b, err := New(Config{Self: 2, ListenAddr: deadAddr, Peers: map[types.ProcessID]string{1: a.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, msg(1, 99, "back up")); err != nil {
			t.Fatal(err)
		}
		select {
		case in := <-b.Recv():
			ok := string(in.Msg.Payload) == "back up"
			in.Release()
			if ok {
				return
			}
		case <-time.After(200 * time.Millisecond):
		}
	}
	t.Fatal("no message delivered after the peer came back")
}
