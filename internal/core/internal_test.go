package core

import (
	"testing"
	"testing/quick"
	"time"

	"newtop/internal/types"
)

func msg(origin, sender types.ProcessID, num types.MsgNum, seq uint64) *types.Message {
	return &types.Message{Kind: types.KindData, Group: 1, Origin: origin, Sender: sender, Num: num, Seq: seq}
}

func TestMsgLogAddAndConcerning(t *testing.T) {
	l := newMsgLog()
	l.add(msg(1, 1, 5, 1))
	l.add(msg(1, 1, 8, 2))
	l.add(msg(2, 1, 9, 1)) // relay: origin 2, sender 1
	l.add(msg(2, 2, 3, 7)) // direct from 2

	got := l.concerningAbove(1, 5)
	if len(got) != 2 || got[0].Num != 8 || got[1].Num != 9 {
		t.Errorf("concerningAbove(1,5) = %v, want nums [8 9]", got)
	}
	got = l.concerningAbove(2, 0)
	if len(got) != 2 || got[0].Num != 3 || got[1].Num != 9 {
		t.Errorf("concerningAbove(2,0) = %v, want nums [3 9]", got)
	}
	if l.len() != 4 {
		t.Errorf("len = %d, want 4", l.len())
	}
}

func TestMsgLogDuplicatesIgnored(t *testing.T) {
	l := newMsgLog()
	l.add(msg(1, 1, 5, 1))
	l.add(msg(1, 1, 5, 1))
	if l.len() != 1 {
		t.Errorf("len = %d, want 1 after duplicate add", l.len())
	}
	// Out-of-order insert is kept sorted.
	l.add(msg(1, 1, 9, 3))
	l.add(msg(1, 1, 7, 2))
	s := l.byOrigin[1]
	for i := 1; i < len(s); i++ {
		if s[i].Seq <= s[i-1].Seq {
			t.Fatalf("log not seq-sorted: %v", s)
		}
	}
}

func TestMsgLogGC(t *testing.T) {
	l := newMsgLog()
	for i := uint64(1); i <= 10; i++ {
		l.add(msg(1, 1, types.MsgNum(i), i))
	}
	l.gc(7)
	if l.len() != 3 {
		t.Errorf("len after gc(7) = %d, want 3", l.len())
	}
	if got := l.concerningAbove(1, 0); len(got) != 3 || got[0].Num != 8 {
		t.Errorf("after gc: %v", got)
	}
	l.gc(100)
	if l.len() != 0 {
		t.Errorf("len after full gc = %d", l.len())
	}
}

func TestMsgLogCountAboveAndDrop(t *testing.T) {
	l := newMsgLog()
	for i := uint64(1); i <= 6; i++ {
		l.add(msg(3, 3, types.MsgNum(i*10), i))
	}
	if got := l.countAbove(3, 30); got != 3 {
		t.Errorf("countAbove = %d, want 3", got)
	}
	// Nulls are not part of the flow-controlled backlog.
	null := msg(3, 3, 70, 7)
	null.Kind = types.KindNull
	l.add(null)
	if got := l.countAbove(3, 30); got != 3 {
		t.Errorf("countAbove with a null above = %d, want 3", got)
	}
	if got := l.countAbove(9, 0); got != 0 {
		t.Errorf("countAbove unknown origin = %d, want 0", got)
	}
	l.dropOrigin(3)
	if l.len() != 0 {
		t.Errorf("len after dropOrigin = %d", l.len())
	}
}

func TestDeliveryQueueOrdering(t *testing.T) {
	q := newDeliveryQueue()
	q.Push(msg(2, 2, 5, 1))
	q.Push(msg(1, 1, 5, 1)) // same num, lower origin: first
	q.Push(msg(3, 3, 2, 1))
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	if m := q.Pop(); m.Num != 2 {
		t.Errorf("first pop num = %v, want 2", m.Num)
	}
	if m := q.Pop(); m.Origin != 1 {
		t.Errorf("second pop origin = %v, want P1 (tie-break)", m.Origin)
	}
	if m := q.Pop(); m.Origin != 2 {
		t.Errorf("third pop origin = %v", m.Origin)
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Error("empty queue must return nil")
	}
}

func TestDeliveryQueueDiscardAndHasAtOrBelow(t *testing.T) {
	q := newDeliveryQueue()
	for i := uint64(1); i <= 10; i++ {
		q.Push(msg(types.ProcessID(i%3+1), types.ProcessID(i%3+1), types.MsgNum(i), i))
	}
	removed := q.Discard(func(m *types.Message) bool { return m.Num > 5 })
	if removed != 5 || q.Len() != 5 {
		t.Errorf("removed %d, len %d; want 5, 5", removed, q.Len())
	}
	if !q.HasAtOrBelow(1) {
		t.Error("HasAtOrBelow(1) = false, head should be num 1")
	}
	var last types.MsgNum
	for q.Len() > 0 {
		m := q.Pop()
		if m.Num < last {
			t.Fatal("heap order broken after Discard")
		}
		last = m.Num
	}
}

// TestDeliveryQueueDiscardKeepsHeapInvariant drives Discard the way a
// partition's view cutoff does — arbitrary queue contents, a predicate
// over (origin, num) — and checks the O(n) bottom-up rebuild leaves a
// valid heap with exactly the right survivors.
func TestDeliveryQueueDiscardKeepsHeapInvariant(t *testing.T) {
	f := func(nums []uint16, cutoff uint16, origin uint8) bool {
		q := newDeliveryQueue()
		expectKept := 0
		pred := func(m *types.Message) bool {
			return m.Origin == types.ProcessID(origin%4+1) && m.Num > types.MsgNum(cutoff)
		}
		for i, n := range nums {
			m := msg(types.ProcessID(i%4+1), types.ProcessID(i%4+1), types.MsgNum(n), uint64(i))
			q.Push(m)
			if !pred(m) {
				expectKept++
			}
		}
		removed := q.Discard(pred)
		if removed != len(nums)-expectKept || q.Len() != expectKept {
			return false
		}
		var last types.MsgNum
		for q.Len() > 0 {
			m := q.Pop()
			if m.Num < last || pred(m) {
				return false
			}
			last = m.Num
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeliveryQueueHeapProperty(t *testing.T) {
	f := func(nums []uint16) bool {
		q := newDeliveryQueue()
		for i, n := range nums {
			q.Push(msg(types.ProcessID(i+1), types.ProcessID(i+1), types.MsgNum(n), uint64(i)))
		}
		var last types.MsgNum
		for q.Len() > 0 {
			m := q.Pop()
			if m.Num < last {
				return false
			}
			last = m.Num
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// setRV / setSV force vector entries through the dense member table while
// keeping the incremental min caches consistent (tests only).
func setRV(g *groupState, p types.ProcessID, v types.MsgNum) {
	g.mem[g.memberIndex(p)].rv = v
	g.recomputeMins()
}

func setSV(g *groupState, p types.ProcessID, v types.MsgNum) {
	g.mem[g.memberIndex(p)].sv = v
	g.recomputeMins()
}

func TestGroupStateDx(t *testing.T) {
	gs := newGroupState(1, Symmetric)
	gs.status = statusActive
	gs.activate([]types.ProcessID{1, 2, 3}, time.Time{}, false)
	setRV(gs, 1, 10)
	setRV(gs, 2, 7)
	setRV(gs, 3, 12)
	if got := gs.dx(); got != 7 {
		t.Errorf("symmetric dx = %v, want 7 (min)", got)
	}
	// Removed member at ∞ no longer gates.
	setRV(gs, 2, types.InfNum)
	if got := gs.dx(); got != 10 {
		t.Errorf("dx with ∞ entry = %v, want 10", got)
	}
	// dFloor lifts the result.
	gs.dFloor = 11
	if got := gs.dx(); got != 11 {
		t.Errorf("dx with floor = %v, want 11", got)
	}
}

func TestGroupStateDxAsymmetric(t *testing.T) {
	gs := newGroupState(1, Asymmetric)
	gs.status = statusActive
	gs.activate([]types.ProcessID{2, 3, 5}, time.Time{}, false)
	setRV(gs, 2, 9)
	setRV(gs, 3, 4)
	setRV(gs, 5, 6)
	// Fault-tolerant mode: min(RV) like symmetric.
	if got := gs.dx(); got != 4 {
		t.Errorf("asymmetric FT dx = %v, want 4", got)
	}
	// Static failure-free mode: the sequencer's last number.
	gs.staticD = true
	if got := gs.dx(); got != 9 {
		t.Errorf("asymmetric static dx = %v, want 9 (rv[sequencer P2])", got)
	}
	if got := gs.sequencer(); got != 2 {
		t.Errorf("sequencer = %v, want P2 (lowest)", got)
	}
}

func TestGroupStateStartWaitPinsD(t *testing.T) {
	gs := newGroupState(1, Symmetric)
	gs.status = statusStartWait
	gs.activate([]types.ProcessID{1, 2}, time.Time{}, false)
	setRV(gs, 1, 50)
	setRV(gs, 2, 60)
	gs.startPin = 3
	if got := gs.dx(); got != 3 {
		t.Errorf("startWait dx = %v, want pinned 3", got)
	}
}

func TestGroupStateMinSV(t *testing.T) {
	gs := newGroupState(1, Symmetric)
	gs.status = statusActive
	gs.activate([]types.ProcessID{1, 2, 3}, time.Time{}, false)
	setSV(gs, 1, 5)
	setSV(gs, 2, 2)
	setSV(gs, 3, 9)
	if got := gs.minSV(); got != 2 {
		t.Errorf("minSV = %v, want 2", got)
	}
}

func TestGroupStateKnownNum(t *testing.T) {
	gs := newGroupState(1, Asymmetric)
	gs.status = statusActive
	gs.activate([]types.ProcessID{3, 4}, time.Time{}, false)
	setRV(gs, 4, 10)
	gs.mem[gs.memberIndex(4)].relayedNum = 25
	if got := gs.knownNum(4); got != 25 {
		t.Errorf("knownNum = %v, want 25 (relay dominates)", got)
	}
	setRV(gs, 4, types.InfNum)
	if got := gs.knownNum(4); got != types.InfNum {
		t.Errorf("knownNum with ∞ rv = %v", got)
	}
	// Non-member origins are tracked through the stray overflow.
	gs.stray(9).relayedNum = 7
	if got := gs.knownNum(9); got != 7 {
		t.Errorf("knownNum of stray origin = %v, want 7", got)
	}
}

func TestRunsTimeSilence(t *testing.T) {
	tests := []struct {
		mode    OrderMode
		self    types.ProcessID
		fd      bool
		want    bool
		comment string
	}{
		{Symmetric, 2, true, true, "FT symmetric: everyone"},
		{Symmetric, 2, false, true, "static symmetric: everyone (liveness of D)"},
		{Asymmetric, 1, false, true, "static asymmetric: sequencer"},
		{Asymmetric, 2, false, false, "static asymmetric: member silent"},
		{Asymmetric, 2, true, true, "FT asymmetric: everyone"},
		{Atomic, 2, true, true, "FT atomic: everyone (failure detection)"},
		{Atomic, 2, false, false, "static atomic: nobody"},
	}
	for _, tt := range tests {
		gs := newGroupState(1, tt.mode)
		gs.status = statusActive
		gs.activate([]types.ProcessID{1, 2, 3}, time.Time{}, false)
		if got := gs.runsTimeSilence(tt.self, tt.fd); got != tt.want {
			t.Errorf("%s: runsTimeSilence = %v, want %v", tt.comment, got, tt.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Self: 1}.withDefaults()
	if cfg.Omega != DefaultOmega {
		t.Errorf("Omega = %v", cfg.Omega)
	}
	if cfg.SuspicionTimeout != DefaultSuspicionFactor*DefaultOmega {
		t.Errorf("SuspicionTimeout = %v", cfg.SuspicionTimeout)
	}
	if cfg.FormationTimeout != DefaultFormationFactor*DefaultOmega {
		t.Errorf("FormationTimeout = %v", cfg.FormationTimeout)
	}
	// Explicit values are preserved.
	cfg2 := Config{Self: 1, Omega: time.Second, SuspicionTimeout: 3 * time.Second}.withDefaults()
	if cfg2.Omega != time.Second || cfg2.SuspicionTimeout != 3*time.Second {
		t.Errorf("explicit config overridden: %+v", cfg2)
	}
}

func TestOrderModeString(t *testing.T) {
	tests := []struct {
		m    OrderMode
		want string
	}{
		{Atomic, "atomic"}, {Symmetric, "symmetric"}, {Asymmetric, "asymmetric"}, {OrderMode(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEffectStrings(t *testing.T) {
	effs := []Effect{
		SendEffect{To: 2, Msg: &types.Message{Kind: types.KindData}},
		DeliverEffect{Msg: &types.Message{Kind: types.KindData}, View: 1},
		ViewEffect{View: types.NewView(1, 1, []types.ProcessID{1})},
		GroupReadyEffect{Group: 1, StartMax: 5},
		FormationFailedEffect{Group: 1, Reason: "x"},
		SuspectEffect{Group: 1, Susp: types.Suspicion{Proc: 2, LN: 3}},
	}
	for _, e := range effs {
		if e.String() == "" {
			t.Errorf("%T has empty String()", e)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	e := NewEngine(Config{Self: 3, Omega: time.Millisecond})
	if e.Self() != 3 {
		t.Errorf("Self = %v", e.Self())
	}
	if e.Omega() != time.Millisecond {
		t.Errorf("Omega = %v", e.Omega())
	}
	if _, err := e.View(9); err == nil {
		t.Error("View of unknown group must error")
	}
	now := time.Now()
	if _, err := e.BootstrapGroup(now, 1, Symmetric, []types.ProcessID{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BootstrapGroup(now, 2, Symmetric, []types.ProcessID{3, 5}); err != nil {
		t.Fatal(err)
	}
	gs := e.Groups()
	if len(gs) != 2 || gs[0] != 1 || gs[1] != 2 {
		t.Errorf("Groups = %v", gs)
	}
	if e.PendingDeliveries() != 0 {
		t.Errorf("PendingDeliveries = %d", e.PendingDeliveries())
	}
	if e.Clock() != 0 {
		t.Errorf("Clock = %v, want 0 before any send", e.Clock())
	}
}

func TestSubmitErrors(t *testing.T) {
	e := NewEngine(Config{Self: 1, Omega: time.Millisecond})
	now := time.Now()
	if _, err := e.Submit(now, 1, []byte("x")); err == nil {
		t.Error("Submit to unknown group must error")
	}
	if _, err := e.LeaveGroup(now, 1); err == nil {
		t.Error("LeaveGroup of unknown group must error")
	}
	if _, err := e.BootstrapGroup(now, 1, Symmetric, []types.ProcessID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LeaveGroup(now, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(now, 1, []byte("x")); err == nil {
		t.Error("Submit to departed group must error")
	}
}
