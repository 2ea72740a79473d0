package ring

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"newtop/internal/types"
)

const g = types.GroupID(7)

var t0 = time.Unix(1000, 0)

func newRing(self types.ProcessID, members ...types.ProcessID) *Ring {
	r := New(Config{Self: self, Threshold: 1024, PullAfter: 100 * time.Millisecond})
	r.OnViewChange(g, members, nil, 0)
	return r
}

func dataMsg(sender types.ProcessID, seq uint64, size int) *types.Message {
	return &types.Message{
		Kind: types.KindData, Group: g, Sender: sender, Origin: sender,
		Num: types.MsgNum(seq), Seq: seq, LDN: 0,
		Payload: bytes.Repeat([]byte{byte(seq)}, size),
	}
}

// fanOut runs OnSend for every destination of a multicast, as a runtime
// processing the engine's SendEffects would.
func fanOut(r *Ring, m *types.Message, dests ...types.ProcessID) []Outbound {
	var outs []Outbound
	for _, d := range dests {
		outs = append(outs, r.OnSend(d, m)...)
	}
	return outs
}

func TestSplitLargeMulticast(t *testing.T) {
	r := newRing(1, 1, 2, 3, 4, 5)
	m := dataMsg(1, 1, 4096)
	outs := fanOut(r, m, 2, 3, 4, 5)
	if len(outs) != 4 {
		t.Fatalf("got %d outbounds, want 4 (1 ring data + 3 hdrs): %v", len(outs), outs)
	}
	if outs[0].To != 2 || outs[0].Msg.Kind != types.KindRingData || outs[0].Msg.Hops != 0 {
		t.Errorf("first outbound should be ring data to successor 2, got %v to %v", outs[0].Msg, outs[0].To)
	}
	if !bytes.Equal(outs[0].Msg.Payload, m.Payload) {
		t.Error("ring data payload mismatch")
	}
	for i, want := range []types.ProcessID{3, 4, 5} {
		o := outs[i+1]
		if o.To != want || o.Msg.Kind != types.KindRingHdr || len(o.Msg.Payload) != 0 {
			t.Errorf("outbound %d: want hdr to %v, got %v to %v", i+1, want, o.Msg, o.To)
		}
	}
}

func TestSmallPayloadPassesThrough(t *testing.T) {
	r := newRing(1, 1, 2, 3)
	m := dataMsg(1, 1, 16)
	outs := fanOut(r, m, 2, 3)
	if len(outs) != 2 || outs[0].Msg != m || outs[1].Msg != m {
		t.Fatalf("small payload must pass through untouched: %v", outs)
	}
}

func TestTwoMemberGroupPassesThrough(t *testing.T) {
	r := newRing(1, 1, 2)
	m := dataMsg(1, 1, 4096)
	outs := fanOut(r, m, 2)
	if len(outs) != 1 || outs[0].Msg != m {
		t.Fatalf("no ring with 2 members: %v", outs)
	}
}

func TestReassemblyHdrFirst(t *testing.T) {
	r := newRing(3, 1, 2, 3, 4, 5)
	orig := dataMsg(1, 1, 4096)
	outs, delivers := r.OnReceive(t0, 1, hdrFrame(orig))
	if len(outs) != 0 || len(delivers) != 0 {
		t.Fatalf("hdr alone must not deliver: %v %v", outs, delivers)
	}
	// Relayed payload from predecessor 2.
	outs, delivers = r.OnReceive(t0, 2, ringDataFrame(orig, 1))
	if len(delivers) != 1 || delivers[0].From != 1 || delivers[0].Msg.Kind != types.KindData {
		t.Fatalf("want reassembled delivery from 1, got %v", delivers)
	}
	if !bytes.Equal(delivers[0].Msg.Payload, orig.Payload) {
		t.Error("payload mismatch after reassembly")
	}
	if len(outs) != 1 || outs[0].To != 4 || outs[0].Msg.Hops != 2 {
		t.Fatalf("must relay to successor 4 with hops 2, got %v", outs)
	}
}

func TestReassemblyPayloadFirst(t *testing.T) {
	r := newRing(3, 1, 2, 3, 4, 5)
	orig := dataMsg(1, 1, 4096)
	_, delivers := r.OnReceive(t0, 2, ringDataFrame(orig, 1))
	if len(delivers) != 0 {
		t.Fatalf("relayed payload without hdr must park, got %v", delivers)
	}
	_, delivers = r.OnReceive(t0, 1, hdrFrame(orig))
	if len(delivers) != 1 || !bytes.Equal(delivers[0].Msg.Payload, orig.Payload) {
		t.Fatalf("hdr must release parked payload, got %v", delivers)
	}
}

func TestSuccessorDeliversDirectFrame(t *testing.T) {
	r := newRing(2, 1, 2, 3, 4)
	orig := dataMsg(1, 1, 4096)
	outs, delivers := r.OnReceive(t0, 1, ringDataFrame(orig, 0))
	if len(delivers) != 1 || delivers[0].Msg.Kind != types.KindData {
		t.Fatalf("successor should deliver straight from the direct frame, got %v", delivers)
	}
	if len(outs) != 1 || outs[0].To != 3 || outs[0].Msg.Hops != 1 {
		t.Fatalf("successor must relay to 3, got %v", outs)
	}
}

func TestFIFOHoldBehindIncompleteReassembly(t *testing.T) {
	r := newRing(3, 1, 2, 3, 4, 5)
	big := dataMsg(1, 1, 4096)
	small := dataMsg(1, 2, 16)
	if _, d := r.OnReceive(t0, 1, hdrFrame(big)); len(d) != 0 {
		t.Fatal("hdr must open an expectation")
	}
	// A later message from the same peer must not overtake the pending
	// reassembly, or the engine would see a sequence gap.
	if _, d := r.OnReceive(t0, 1, small); len(d) != 0 {
		t.Fatalf("message behind pending reassembly must queue, got %v", d)
	}
	_, delivers := r.OnReceive(t0, 2, ringDataFrame(big, 1))
	if len(delivers) != 2 {
		t.Fatalf("completion must drain the queue in order, got %d delivers", len(delivers))
	}
	if delivers[0].Msg.Seq != 1 || delivers[1].Msg.Seq != 2 {
		t.Errorf("wrong release order: %v, %v", delivers[0].Msg, delivers[1].Msg)
	}
}

func TestNoHoldWhenNothingPending(t *testing.T) {
	r := newRing(3, 1, 2, 3)
	m := dataMsg(1, 1, 16)
	_, delivers := r.OnReceive(t0, 1, m)
	if len(delivers) != 1 || delivers[0].Msg != m {
		t.Fatalf("ordinary traffic must pass through, got %v", delivers)
	}
}

func TestRelayStopsAtRingStarter(t *testing.T) {
	// Ring 1→2→3→1: member 3's successor is the starter; no relay back.
	r := newRing(3, 1, 2, 3)
	orig := dataMsg(1, 1, 4096)
	outs, _ := r.OnReceive(t0, 2, ringDataFrame(orig, 1))
	if len(outs) != 0 {
		t.Fatalf("must not relay back to the ring starter, got %v", outs)
	}
}

func TestRelayStopsAtHopCap(t *testing.T) {
	r := newRing(3, 1, 2, 3, 4, 5)
	orig := dataMsg(1, 1, 4096)
	f := ringDataFrame(orig, 4) // 5 members: hops+1 == len(members) is the cap
	outs, _ := r.OnReceive(t0, 2, f)
	if len(outs) != 0 {
		t.Fatalf("hop cap must stop the relay, got %v", outs)
	}
}

func TestPullRetryAndServe(t *testing.T) {
	// Origin 1 disseminates; member 4 gets the hdr but the payload is lost.
	origin := newRing(1, 1, 2, 3, 4)
	m := dataMsg(1, 1, 4096)
	fanOut(origin, m, 2, 3, 4)

	member := newRing(4, 1, 2, 3, 4)
	member.OnReceive(t0, 1, hdrFrame(m))
	if member.PendingReassemblies() != 1 {
		t.Fatal("expectation not opened")
	}
	// Too early: no pull yet.
	if outs := member.Tick(t0.Add(50 * time.Millisecond)); len(outs) != 0 {
		t.Fatalf("pull before PullAfter: %v", outs)
	}
	outs := member.Tick(t0.Add(200 * time.Millisecond))
	if len(outs) != 1 || outs[0].To != 1 || outs[0].Msg.Kind != types.KindRingPull {
		t.Fatalf("want one pull to the disseminator, got %v", outs)
	}
	// The origin serves the pull from its cache of own disseminations.
	replies, _ := origin.OnReceive(t0, 4, outs[0].Msg)
	if len(replies) != 1 || replies[0].To != 4 || replies[0].Msg.Hops != types.RingNoRelay {
		t.Fatalf("want a no-relay ring data reply, got %v", replies)
	}
	relays, delivers := member.OnReceive(t0, 1, replies[0].Msg)
	if len(relays) != 0 {
		t.Fatalf("pull reply must not be relayed, got %v", relays)
	}
	if len(delivers) != 1 || !bytes.Equal(delivers[0].Msg.Payload, m.Payload) {
		t.Fatalf("pull reply must complete the reassembly, got %v", delivers)
	}
}

func TestDuplicateCompletionIgnored(t *testing.T) {
	r := newRing(2, 1, 2, 3, 4)
	orig := dataMsg(1, 1, 4096)
	_, delivers := r.OnReceive(t0, 1, ringDataFrame(orig, 0))
	if len(delivers) != 1 {
		t.Fatal("first frame must deliver")
	}
	outs, delivers := r.OnReceive(t0, 4, ringDataFrame(orig, 2))
	if len(outs) != 0 || len(delivers) != 0 {
		t.Fatalf("duplicate must be dropped, got %v %v", outs, delivers)
	}
	// A late hdr for a completed message is dropped too.
	_, delivers = r.OnReceive(t0, 1, hdrFrame(orig))
	if len(delivers) != 0 {
		t.Fatalf("late hdr for seen id must be dropped, got %v", delivers)
	}
}

func TestViewChangeFlushesRemovedDisseminator(t *testing.T) {
	r := newRing(3, 1, 2, 3, 4, 5)
	big := dataMsg(1, 1, 4096)
	small := dataMsg(1, 2, 16)
	r.OnReceive(t0, 1, hdrFrame(big))
	r.OnReceive(t0, 1, small)
	_, delivers := r.OnViewChange(g, []types.ProcessID{2, 3, 4, 5}, []types.ProcessID{1}, 0)
	// The incomplete reassembly is abandoned; the queued message behind it
	// is released (the engine drops removed-sender traffic itself).
	if len(delivers) != 1 || delivers[0].Msg.Seq != 2 {
		t.Fatalf("queued message must be flushed on view change, got %v", delivers)
	}
	if r.PendingReassemblies() != 0 {
		t.Error("abandoned reassembly still pending")
	}
}

func TestViewChangeRedisseminates(t *testing.T) {
	r := newRing(1, 1, 2, 3, 4)
	m := dataMsg(1, 1, 4096)
	fanOut(r, m, 2, 3, 4)
	// Successor 2 is removed: the origin re-disseminates on the new ring,
	// whose successor is 3.
	outs, _ := r.OnViewChange(g, []types.ProcessID{1, 3, 4}, []types.ProcessID{2}, 0)
	if len(outs) != 1 || outs[0].To != 3 || outs[0].Msg.Kind != types.KindRingData {
		t.Fatalf("want re-dissemination to new successor 3, got %v", outs)
	}
	if !bytes.Equal(outs[0].Msg.Payload, m.Payload) {
		t.Error("re-disseminated payload mismatch")
	}
}

// OnViewChange re-sends exactly the cached own payloads numbered above the
// engine's stability threshold: every member already holds the rest.
func TestViewChangeRedisseminatesOnlyUnstable(t *testing.T) {
	for _, tc := range []struct {
		stable types.MsgNum
		want   []uint64 // re-sent sequence numbers, in cache order
	}{
		{stable: 0, want: []uint64{1, 2, 3, 4}},
		{stable: 2, want: []uint64{3, 4}},
		{stable: 4, want: nil},
		{stable: 100, want: nil},
	} {
		r := newRing(1, 1, 2, 3, 4)
		for seq := uint64(1); seq <= 4; seq++ {
			fanOut(r, dataMsg(1, seq, 4096), 2, 3, 4)
		}
		outs, _ := r.OnViewChange(g, []types.ProcessID{1, 3, 4}, []types.ProcessID{2}, tc.stable)
		var got []uint64
		for _, o := range outs {
			if o.To != 3 || o.Msg.Kind != types.KindRingData {
				t.Fatalf("stable=%d: want ring data to the new successor 3, got %v", tc.stable, o)
			}
			got = append(got, o.Msg.Seq)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("stable=%d: re-sent %v, want %v", tc.stable, got, tc.want)
		}
	}
}

func TestFallbackWhenViewShrinksBelowRing(t *testing.T) {
	r := newRing(1, 1, 2, 3)
	r.OnViewChange(g, []types.ProcessID{1, 2}, []types.ProcessID{3}, 0)
	m := dataMsg(1, 1, 4096)
	outs := fanOut(r, m, 2)
	if len(outs) != 1 || outs[0].Msg != m {
		t.Fatalf("shrunken view must fall back to direct send, got %v", outs)
	}
}
