package tcpnet

import (
	"net"
	"testing"
	"time"

	"newtop/internal/types"
)

// quiet asserts that nothing — message or hint — arrives at ep for d.
func quiet(t *testing.T, ep *Endpoint, d time.Duration) {
	t.Helper()
	select {
	case in, ok := <-ep.Recv():
		if ok {
			t.Errorf("P%v got an unexpected inbound from P%v (down=%v)", ep.Self(), in.From, in.Down)
			in.Release()
		}
	case <-time.After(d):
	}
}

// probes reports the endpoint's probe dials and the hints they queued.
func probes(ep *Endpoint) (probed, down uint64) {
	return ep.om.peerProbes.Value(), ep.om.peerDown.Value()
}

// waitProbes waits until ep has made n probe dials.
func waitProbes(t *testing.T, ep *Endpoint, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if p, _ := probes(ep); p >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("P%v made no probe dial", ep.Self())
		}
		time.Sleep(time.Millisecond)
	}
}

// A peer that closes its endpoint is a process gone from a live host: its
// connection ends, its port refuses, and the survivor gets one hint behind
// the peer's last frame.
func TestPeerDownAfterPeerClose(t *testing.T) {
	a, b := newPair(t)
	for i := uint64(1); i <= 5; i++ {
		if err := a.Send(2, msg(1, i, "before close")); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		if got := recvOne(t, b); got.Msg.Seq != i {
			t.Fatalf("message %d arrived as seq %d", i, got.Msg.Seq)
		}
	}
	if err := a.Send(2, msg(1, 6, "last")); err != nil {
		t.Fatal(err)
	}
	// The last frame may still be in the sender's queue when Close runs;
	// whatever of it the wire carried arrives before the hint.
	time.Sleep(20 * time.Millisecond)
	closed := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	var sawLast bool
	for {
		select {
		case in := <-b.Recv():
			if in.Down {
				if in.From != 1 || in.Msg != nil || in.Buf != nil {
					t.Fatalf("hint = %+v, want a bare Down from P1", in)
				}
				if wait := time.Since(closed); wait > 50*time.Millisecond {
					t.Errorf("hint arrived %v after the close, want ≤ 50ms", wait)
				}
				if !sawLast {
					t.Error("hint overtook the peer's last frame")
				}
				if _, down := probes(b); down != 1 {
					t.Errorf("peer_down_total = %d, want 1", down)
				}
				// The refused probe is no data dial: perfbench's drop and
				// dial accounting must not see it.
				if att, fail := b.DialStats(); att != 0 || fail != 0 {
					t.Errorf("probe counted as a data dial: attempts %d, failures %d", att, fail)
				}
				return
			}
			sawLast = in.Msg.Seq == 6
			in.Release()
		case <-time.After(time.Second):
			t.Fatal("no peer-down hint within 1s of the peer's close")
		}
	}
}

// An endpoint that closes itself probes nobody: its own reads end because
// it is closing, not because a peer left.
func TestNoPeerDownOnOwnClose(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(2, msg(1, 1, "x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for in := range b.Recv() {
		if in.Down {
			t.Errorf("closing endpoint got a hint about P%v", in.From)
		}
		in.Release()
	}
	if p, d := probes(b); p != 0 || d != 0 {
		t.Errorf("closing endpoint probed %d times, queued %d hints; want none", p, d)
	}
}

// A live peer that drops its outbound connection (a write error, say)
// still accepts connections: the probe connects, no hint is queued, and
// the peer's traffic resumes on a fresh connection.
func TestNoPeerDownWhenPeerAlive(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(2, msg(1, 1, "first")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	ps := a.senders[2]
	ps.mu.Lock()
	conn := ps.conn
	ps.mu.Unlock()
	_ = conn.Close()
	waitProbes(t, b, 1)

	// The next batch may die on the closed connection; keep sending until
	// one arrives over the redialled one.
	deadline := time.Now().Add(5 * time.Second)
	for seq := uint64(2); ; seq++ {
		if err := a.Send(2, msg(1, seq, "again")); err != nil {
			t.Fatal(err)
		}
		select {
		case in := <-b.Recv():
			if in.Down {
				t.Fatal("hint about a live peer")
			}
			in.Release()
			if _, d := probes(b); d != 0 {
				t.Errorf("peer_down_total = %d, want 0", d)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("traffic never resumed after the dropped connection")
		}
	}
}

// A probe is an unidentified connection, so it can make its target probe
// nobody back; nor can any other connection that never sent a hello.
func TestProbeAndHellolessConnectionsRaiseNothing(t *testing.T) {
	a, b := newPair(t)
	// a probes a live b: the dial connects, so a queues nothing, and b's
	// read of the helloless probe connection ends without a probe of its
	// own.
	a.probePeer(2)
	// A stranger connects to a and leaves without a hello.
	c, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	quiet(t, a, 100*time.Millisecond)
	quiet(t, b, time.Millisecond)
	if p, d := probes(a); p != 1 || d != 0 {
		t.Errorf("prober: %d probes, %d hints; want 1, 0", p, d)
	}
	if p, d := probes(b); p != 0 || d != 0 {
		t.Errorf("probed peer: %d probes, %d hints; want 0, 0", p, d)
	}
	// Probes stay out of the dial counters the data path reports.
	if att, fail := a.DialStats(); att != 0 || fail != 0 {
		t.Errorf("probe counted as a data dial: attempts %d, failures %d", att, fail)
	}
}

// A peer in the address book that never connected leaves nothing to
// probe, even once its port refuses.
func TestNoPeerDownForPeerThatNeverConnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	_ = ln.Close()
	a, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Peers: map[types.ProcessID]string{2: gone}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	quiet(t, a, 100*time.Millisecond)
	if p, d := probes(a); p != 0 || d != 0 {
		t.Errorf("%d probes, %d hints for a peer that never connected; want none", p, d)
	}
}
