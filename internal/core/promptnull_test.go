package core_test

import (
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/types"
)

// Prompt nulls (Engine.Flush): a symmetric member that received a peer's
// data answers with one null once its inbound burst is handled, so
// delivery waits a round trip instead of the quiet members' ω.

var t0 = time.Unix(0, 0)

// promptEngine returns P1 of a bootstrapped symmetric group 1 {P1,P2,P3}
// that has heard P3's first time-silence null (num 1) and nothing from P2.
func promptEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.NewEngine(core.Config{Self: 1, Omega: time.Second})
	if _, err := e.BootstrapGroup(t0, 1, core.Symmetric, []types.ProcessID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	e.HandleMessage(t0, 3, peerMsg(types.KindNull, 1, 3, 1, 1))
	return e
}

func peerMsg(kind types.Kind, g types.GroupID, from types.ProcessID, num types.MsgNum, seq uint64) *types.Message {
	return &types.Message{Kind: kind, Group: g, Sender: from, Origin: from, Num: num, Seq: seq, Payload: []byte("x")}
}

func sends(effs []core.Effect) []core.SendEffect {
	var out []core.SendEffect
	for _, eff := range effs {
		if s, ok := eff.(core.SendEffect); ok {
			out = append(out, s)
		}
	}
	return out
}

func TestPromptNullAnswersPeerDataOnFlush(t *testing.T) {
	e := promptEngine(t)
	if s := sends(e.HandleMessage(t0, 2, peerMsg(types.KindData, 1, 2, 5, 1))); len(s) != 0 {
		t.Fatalf("HandleMessage of peer data sent %v; the receive path must not send", s)
	}
	// A second message of the same burst raises the debt; one null
	// answers both.
	if s := sends(e.HandleMessage(t0, 2, peerMsg(types.KindData, 1, 2, 7, 2))); len(s) != 0 {
		t.Fatalf("HandleMessage of peer data sent %v", s)
	}
	s := sends(e.Flush(t0))
	if len(s) != 2 {
		t.Fatalf("Flush sent %d messages, want one null to each of P2, P3: %v", len(s), s)
	}
	null := s[0].Msg
	if null.Kind != types.KindNull || null.Group != 1 || null.Num <= 7 {
		t.Fatalf("Flush sent %v, want a null in g1 numbered above 7", null)
	}
	if s[1].Msg != null || s[0].To == s[1].To {
		t.Fatalf("Flush sent %v, want one null multicast to P2 and P3", s)
	}
	if st := e.Stats(); st.NullsSent != 1 {
		t.Fatalf("stats = %+v, want one null sent", st)
	}
	if effs := e.Flush(t0); len(effs) != 0 {
		t.Fatalf("second Flush emitted %v, want nothing", effs)
	}
}

func TestPromptNullWaitsUntilEveryMemberHeardFrom(t *testing.T) {
	// A freshly bootstrapped P1 has heard from nobody: P3 may not be
	// listening yet, so P2's data leaves the debt unpaid.
	e := core.NewEngine(core.Config{Self: 1, Omega: time.Second})
	if _, err := e.BootstrapGroup(t0, 1, core.Symmetric, []types.ProcessID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	e.HandleMessage(t0, 2, peerMsg(types.KindData, 1, 2, 5, 1))
	if s := sends(e.Flush(t0)); len(s) != 0 {
		t.Fatalf("Flush before hearing from P3 sent %v", s)
	}
	// P3's first null makes the group complete; the next Flush pays the
	// debt, though nulls alone never create one.
	e.HandleMessage(t0, 3, peerMsg(types.KindNull, 1, 3, 6, 1))
	s := sends(e.Flush(t0))
	if len(s) != 2 || s[0].Msg.Kind != types.KindNull || s[0].Msg.Num <= 6 {
		t.Fatalf("Flush after hearing from P3 sent %v, want one null numbered above 6", s)
	}
}

func TestPromptNullOwedOncePerGroup(t *testing.T) {
	e := core.NewEngine(core.Config{Self: 1, Omega: time.Second})
	for g, peer := range map[types.GroupID]types.ProcessID{1: 2, 2: 3} {
		if _, err := e.BootstrapGroup(t0, g, core.Symmetric, []types.ProcessID{1, peer}); err != nil {
			t.Fatal(err)
		}
	}
	e.HandleMessage(t0, 2, peerMsg(types.KindData, 1, 2, 5, 1))
	e.HandleMessage(t0, 3, peerMsg(types.KindData, 2, 3, 6, 1))
	s := sends(e.Flush(t0))
	if len(s) != 2 || s[0].Msg.Group == s[1].Msg.Group {
		t.Fatalf("Flush sent %v, want one null in each of g1 and g2", s)
	}
}

func TestPromptNullOwnSendCoversDebt(t *testing.T) {
	e := promptEngine(t)
	e.HandleMessage(t0, 2, peerMsg(types.KindData, 1, 2, 5, 1))
	// P1's own data goes out numbered above 5: it answers the peer, so no
	// null is owed any more.
	if _, err := e.Submit(t0, 1, []byte("own")); err != nil {
		t.Fatal(err)
	}
	if effs := e.Flush(t0); len(effs) != 0 {
		t.Fatalf("Flush after an own send emitted %v, want nothing", effs)
	}
}

func TestPromptNullNoDebt(t *testing.T) {
	t.Run("received null", func(t *testing.T) {
		e := promptEngine(t)
		e.HandleMessage(t0, 2, peerMsg(types.KindNull, 1, 2, 5, 1))
		if effs := e.Flush(t0); len(effs) != 0 {
			t.Fatalf("Flush after a received null emitted %v; nulls must not answer nulls", effs)
		}
	})
	t.Run("own loopback", func(t *testing.T) {
		e := promptEngine(t)
		if _, err := e.Submit(t0, 1, []byte("own")); err != nil {
			t.Fatal(err)
		}
		if effs := e.Flush(t0); len(effs) != 0 {
			t.Fatalf("Flush after an own send emitted %v", effs)
		}
	})
	for _, mode := range []core.OrderMode{core.Atomic, core.Asymmetric} {
		t.Run(mode.String(), func(t *testing.T) {
			// P3 receives data multicast by P1 (in asymmetric mode, the
			// sequencer): neither mode gates delivery on every member's
			// numbers, so neither owes a prompt null.
			e := core.NewEngine(core.Config{Self: 3, Omega: time.Second})
			if _, err := e.BootstrapGroup(t0, 1, mode, []types.ProcessID{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			e.HandleMessage(t0, 1, peerMsg(types.KindData, 1, 1, 5, 1))
			if effs := e.Flush(t0); len(effs) != 0 {
				t.Fatalf("Flush in a %v group emitted %v", mode, effs)
			}
		})
	}
	t.Run("forming and start-wait", func(t *testing.T) {
		e := core.NewEngine(core.Config{Self: 1, Omega: time.Second})
		if _, err := e.CreateGroup(t0, 9, core.Symmetric, []types.ProcessID{1, 2}); err != nil {
			t.Fatal(err)
		}
		// Forming: the data is buffered until activation.
		e.HandleMessage(t0, 2, peerMsg(types.KindData, 9, 2, 5, 1))
		if effs := e.Flush(t0); len(effs) != 0 {
			t.Fatalf("Flush while forming emitted %v", effs)
		}
		// P2's yes activates the group into the start-group wait (P2's
		// start-group has not arrived); the buffered data replays there.
		yes := &types.Message{Kind: types.KindFormVote, Group: 9, Sender: 2, Origin: 2, Vote: true,
			Invite: []types.ProcessID{1, 2}, Payload: []byte{byte(core.Symmetric)}}
		e.HandleMessage(t0, 2, yes)
		if e.GroupReady(9) {
			t.Fatal("group active without P2's start-group; scenario mis-staged")
		}
		e.HandleMessage(t0, 2, peerMsg(types.KindData, 9, 2, 6, 2))
		if effs := e.Flush(t0); len(effs) != 0 {
			t.Fatalf("Flush in start-wait emitted %v", effs)
		}
	})
}

// TestPromptNullsDeliverInRoundTrip runs one multicast in a 5-member
// symmetric group with ω = 1s, after the first round of time-silence
// nulls: every member delivers within a few link latencies, paid for with
// at most one prompt null per receiver.
func TestPromptNullsDeliverInRoundTrip(t *testing.T) {
	const n = 5
	c, ps := newCluster(t, 11, n, func(cfg *core.Config) { cfg.Omega = time.Second })
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	// Every member's first time-silence null (at ω) lets each hear from
	// all the others; prompt nulls answer from then on.
	c.Run(time.Second + 100*time.Millisecond)
	before := make(map[types.ProcessID]uint64, n)
	for _, p := range ps {
		before[p] = c.Engine(p).Stats().NullsSent
	}
	start := c.Now()
	if err := c.Submit(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Two hops (data out, nulls back) at ≤ 3ms each, plus slack: far
	// below ω and the ω/2 tick.
	if !c.RunUntil(20*time.Millisecond, allDelivered(c, 1, ps, 1)) {
		t.Fatal("multicast not delivered everywhere within 20ms (ω = 1s)")
	}
	// No further ω/2 tick falls in the window, so every null it counts is
	// a prompt one.
	var nulls uint64
	for _, p := range ps {
		nulls += c.Engine(p).Stats().NullsSent - before[p]
		if d := c.History(p).Deliveries[0].At.Sub(start); d > 4*3*time.Millisecond {
			t.Errorf("%v delivered after %v, want a few link latencies", p, d)
		}
	}
	if nulls > n-1 {
		t.Fatalf("%d prompt nulls, want at most one per receiver (%d)", nulls, n-1)
	}
	runChecks(t, c)
}
