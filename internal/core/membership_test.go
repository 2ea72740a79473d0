package core_test

import (
	"fmt"
	"testing"
	"time"

	"newtop/internal/check"
	"newtop/internal/core"
	"newtop/internal/sim"
	"newtop/internal/types"
)

// lastView returns p's most recent view of g (fails the test if none).
func lastView(t *testing.T, c *sim.Cluster, p types.ProcessID, g types.GroupID) types.View {
	t.Helper()
	v, ok := check.FinalView(c, p, g)
	if !ok {
		t.Fatalf("%v installed no view for %v", p, g)
	}
	return v
}

// viewExcludes builds a RunUntil condition: every listed process's latest
// view of g excludes all of excluded.
func viewExcludes(c *sim.Cluster, g types.GroupID, procs []types.ProcessID, excluded ...types.ProcessID) func() bool {
	return func() bool {
		for _, p := range procs {
			vs := c.History(p).Views[g]
			if len(vs) == 0 {
				return false
			}
			last := vs[len(vs)-1].View
			for _, x := range excluded {
				if last.Contains(x) {
					return false
				}
			}
		}
		return true
	}
}

// TestDiscardDuringPartition exercises the §5.2 step-viii cutoff under a
// partition: messages from the to-be-excluded side that sit undelivered in
// survivor queues above the agreed lnmn must be discarded (heap rebuilt in
// one O(n) pass) and never delivered, while the survivors stay mutually
// consistent.
func TestDiscardDuringPartition(t *testing.T) {
	c, ps := newCluster(t, 7, 5)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)

	// P1 stops hearing P4, and P1–P3 stop hearing P5; P4's burst reaches
	// P2/P3/P5 but is not deliverable there (P1's receive vector pins D
	// below the burst), so it sits in their delivery queues. P5's links
	// are cut so that its prompt null, which would carry the burst past
	// P1's gate within one hop, cannot reach the survivors-to-be.
	c.Disconnect(4, 1)
	c.CutOneWay(5, 1)
	c.CutOneWay(5, 2)
	c.CutOneWay(5, 3)
	for i := 0; i < 5; i++ {
		if err := c.Submit(4, 1, []byte(fmt.Sprintf("doomed-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(10 * time.Millisecond)
	queued := 0
	for _, p := range []types.ProcessID{2, 3} {
		queued += c.Engine(p).PendingDeliveries()
	}
	if queued == 0 {
		t.Fatal("burst not pending anywhere — scenario mis-staged")
	}

	// Partition away {4,5}. The agreement's lnmn is pinned by P1 (which
	// missed the burst), so P2/P3 must discard it from their queues on
	// view cutoff.
	c.Partition([]types.ProcessID{1, 2, 3}, []types.ProcessID{4, 5})
	survivors := []types.ProcessID{1, 2, 3}
	if !c.RunUntil(60*time.Second, viewExcludes(c, 1, survivors, 4, 5)) {
		t.Fatal("survivors never excluded the partitioned side")
	}
	c.Run(500 * time.Millisecond)

	var discarded uint64
	for _, p := range survivors {
		discarded += c.Engine(p).Stats().Discarded
	}
	if discarded == 0 {
		t.Fatal("view cutoff discarded nothing")
	}
	for _, p := range survivors {
		for _, d := range c.History(p).Deliveries {
			if len(d.Payload) >= 6 && string(d.Payload[:6]) == "doomed" {
				t.Fatalf("%v delivered %q past the cutoff", p, d.Payload)
			}
		}
		if n := c.Engine(p).PendingDeliveries(); n != 0 {
			t.Errorf("%v still has %d undelivered messages", p, n)
		}
	}
	runChecks(t, c, 4, 5)
}

func TestCrashExclusionAgreesOnLastMessage(t *testing.T) {
	// The membership agreement must converge on the last message sent by
	// the crashed process: messages it sent before crashing are either
	// delivered by all survivors or by none.
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, ps := newCluster(t, seed, 5)
			if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
				t.Fatal(err)
			}
			c.Run(50 * time.Millisecond)
			for i := 0; i < 3; i++ {
				for _, p := range ps {
					if err := c.Submit(p, 1, payload(p, i)); err != nil {
						t.Fatal(err)
					}
				}
				c.Run(2 * time.Millisecond)
			}
			c.Crash(5)
			survivors := ps[:4]
			if !c.RunUntil(10*time.Second, viewExcludes(c, 1, survivors, 5)) {
				t.Fatal("survivors never excluded the crashed process")
			}
			c.Run(500 * time.Millisecond)
			runChecks(t, c, 5)
			// All survivors hold the identical 4-member view.
			ref := lastView(t, c, 1, 1)
			for _, p := range survivors[1:] {
				if v := lastView(t, c, p, 1); !v.Equal(ref) {
					t.Errorf("%v view %v != %v", p, v, ref)
				}
			}
		})
	}
}

func TestPaperExample1JointFailureNoOrphanDelivery(t *testing.T) {
	// §5 Example 1: Pr crashes during a multicast received only by Ps;
	// Ps delivers it, multicasts m' (so m → m'), and crashes before it can
	// refute the others' suspicion of Pr. Pr and Ps must be detected
	// together, and m' must not be delivered anywhere m cannot be.
	c, ps := newCluster(t, 101, 5)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)

	// Pr = P4 multicasts m but crashes after reaching only Ps = P5.
	// Member order of SendEffects is ascending, so allow sends to P1..P3
	// to be dropped by cutting those links instead: deterministic partial
	// multicast via link cuts at send time.
	c.Disconnect(4, 1)
	c.Disconnect(4, 2)
	c.Disconnect(4, 3)
	if err := c.Submit(4, 1, []byte("m-partial")); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Millisecond)
	c.Crash(4)

	// Ps = P5: deliver m requires D to advance past it, which cannot
	// happen for P5 alone (it needs everyone's traffic) — in the paper Ps
	// delivers m because the arrival made it deliverable. Here we let P5
	// multicast m' causally after *receiving* m (the causal chain m → m'
	// arises at send time regardless of delivery) and then crash.
	if err := c.Submit(5, 1, []byte("m-prime")); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Millisecond)
	c.Crash(5)

	survivors := []types.ProcessID{1, 2, 3}
	if !c.RunUntil(15*time.Second, viewExcludes(c, 1, survivors, 4, 5)) {
		t.Fatal("survivors never excluded the joint failures")
	}
	c.Run(500 * time.Millisecond)
	runChecks(t, c, 4, 5)

	// m (received only by the crashed P5) must not be delivered anywhere;
	// if m' was discarded by the lnmn cutoff, it is delivered nowhere,
	// and in all cases the causal pair is never inverted. The property
	// checker verified MD5 already; assert m is undelivered explicitly.
	for _, p := range survivors {
		for _, d := range c.History(p).Deliveries {
			if string(d.Payload) == "m-partial" {
				t.Errorf("%v delivered the orphan multicast m", p)
			}
		}
	}
}

func TestPaperExample3ConcurrentSubgroupViews(t *testing.T) {
	// §5 Example 3: g = {P1..P5}; P5 crashes; the network partitions
	// {P1,P2} from {P3,P4} during the agreement. Both sides eventually
	// stabilise into non-intersecting views: {P1,P2} and {P3,P4}.
	c, ps := newCluster(t, 103, 5)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	c.Crash(5)
	// Let the suspicion phase begin, then partition mid-agreement.
	c.Run(60 * time.Millisecond)
	c.Partition([]types.ProcessID{1, 2}, []types.ProcessID{3, 4})

	sideA := []types.ProcessID{1, 2}
	sideB := []types.ProcessID{3, 4}
	ok := c.RunUntil(20*time.Second, func() bool {
		return viewExcludes(c, 1, sideA, 3, 4, 5)() && viewExcludes(c, 1, sideB, 1, 2, 5)()
	})
	if !ok {
		for _, p := range ps[:4] {
			t.Logf("%v views: %v", p, c.History(p).Views[1])
		}
		t.Fatal("subgroup views never stabilised into non-intersecting memberships")
	}
	// Within each side, identical views (VC1 among mutually unsuspecting
	// — P1/P2 may have suspected P3/P4, so check sides directly).
	if a, b := lastView(t, c, 1, 1), lastView(t, c, 2, 1); !a.SameMembers(b) {
		t.Errorf("side A diverges: %v vs %v", a, b)
	}
	if a, b := lastView(t, c, 3, 1), lastView(t, c, 4, 1); !a.SameMembers(b) {
		t.Errorf("side B diverges: %v vs %v", a, b)
	}
	// Final views do not intersect.
	va, vb := lastView(t, c, 1, 1), lastView(t, c, 3, 1)
	for _, p := range va.Members {
		if vb.Contains(p) {
			t.Errorf("stabilised views intersect: %v and %v share %v", va, vb, p)
		}
	}
	// Ordering properties hold per side; cross-side processes suspected
	// each other, so MD/VC properties do not bind across sides.
	runChecks(t, c, 5)
}

func TestSignatureViewsNeverIntersect(t *testing.T) {
	// §6 variant: with signature views ϑ = {Pj, ej}, even *transient*
	// concurrent views never intersect.
	c, ps := newCluster(t, 107, 5, func(cfg *core.Config) {
		cfg.SignatureViews = true
	})
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	c.Crash(5)
	c.Run(60 * time.Millisecond)
	c.Partition([]types.ProcessID{1, 2}, []types.ProcessID{3, 4})
	ok := c.RunUntil(20*time.Second, func() bool {
		return viewExcludes(c, 1, []types.ProcessID{1, 2}, 3, 4, 5)() &&
			viewExcludes(c, 1, []types.ProcessID{3, 4}, 1, 2, 5)()
	})
	if !ok {
		t.Fatal("views never stabilised")
	}
	// Every pair of post-split views from opposite sides must be
	// non-intersecting under signature semantics.
	for _, pa := range []types.ProcessID{1, 2} {
		for _, pb := range []types.ProcessID{3, 4} {
			for _, va := range c.History(pa).Views[1] {
				for _, vb := range c.History(pb).Views[1] {
					if va.View.Index == 0 || vb.View.Index == 0 {
						continue // shared initial view
					}
					if va.View.SameMembers(vb.View) && va.View.Index == vb.View.Index {
						continue // genuinely identical views are fine
					}
					if va.View.Intersects(vb.View) {
						t.Errorf("signature views intersect: %v (at %v) and %v (at %v)",
							va.View, pa, vb.View, pb)
					}
				}
			}
		}
	}
}

func TestFalseSuspicionIsRefuted(t *testing.T) {
	// P1 loses its link to P3 long enough to suspect it; P2 still hears
	// P3 and must refute P1's suspicion, recovering the missing messages.
	// No view change may result.
	c, ps := newCluster(t, 109, 3)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	c.Disconnect(1, 3)
	// P3 keeps multicasting; P1 misses these messages.
	for i := 0; i < 3; i++ {
		if err := c.Submit(3, 1, []byte(fmt.Sprintf("while-cut-%d", i))); err != nil {
			t.Fatal(err)
		}
		c.Run(30 * time.Millisecond)
	}
	// Wait until P1 actually suspects P3.
	ok := c.RunUntil(10*time.Second, func() bool {
		for _, s := range c.History(1).Suspicions {
			if s.Proc == 3 {
				return true
			}
		}
		return false
	})
	if !ok {
		t.Fatal("P1 never suspected the cut-off P3")
	}
	c.Reconnect(1, 3)
	// The refutation must recover P3's messages at P1 and delivery must
	// complete with no exclusions.
	if !c.RunUntil(10*time.Second, allDelivered(c, 1, ps, 3)) {
		t.Fatal("P1 never recovered and delivered the missed messages")
	}
	c.Run(500 * time.Millisecond)
	for _, p := range ps {
		if v := lastView(t, c, p, 1); v.Size() != 3 {
			t.Errorf("%v's view shrank to %v despite successful refutation", p, v)
		}
	}
	if rec := c.Engine(1).Stats().Recovered; rec == 0 {
		t.Error("no messages recovered through refutation")
	}
	runChecks(t, c)
}

func TestShortCutGapHealsThroughRecovery(t *testing.T) {
	// A cut shorter than the suspicion timeout loses messages in flight;
	// the FIFO gap triggers an immediate suspicion whose refutation
	// recovers the lost prefix.
	c, ps := newCluster(t, 113, 3)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	c.Disconnect(1, 3)
	if err := c.Submit(3, 1, []byte("lost-in-cut")); err != nil {
		t.Fatal(err)
	}
	c.Run(20 * time.Millisecond) // < Ω = 100ms: no silence suspicion yet
	c.Reconnect(1, 3)
	if err := c.Submit(3, 1, []byte("after-heal")); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(10*time.Second, allDelivered(c, 1, ps, 2)) {
		t.Fatal("gap never healed")
	}
	c.Run(500 * time.Millisecond)
	for _, p := range ps {
		if v := lastView(t, c, p, 1); v.Size() != 3 {
			t.Errorf("%v's view shrank to %v", p, v)
		}
	}
	if gaps := c.Engine(1).Stats().Gaps; gaps == 0 {
		t.Error("no gap detected despite in-flight loss")
	}
	runChecks(t, c)
}

func TestVoluntaryDepartureExcluded(t *testing.T) {
	// VC2: a departed member is eventually excluded from the others'
	// views. The departed process keeps no view of its own (§3).
	c, ps := newCluster(t, 127, 4)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	if err := c.Leave(4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Engine(4).View(1); err == nil {
		t.Error("departed process still reports a view")
	}
	remaining := ps[:3]
	if !c.RunUntil(15*time.Second, viewExcludes(c, 1, remaining, 4)) {
		t.Fatal("departed member never excluded")
	}
	// Departed process cannot submit or rejoin.
	if err := c.Submit(4, 1, []byte("zombie")); err == nil {
		t.Error("submit after leave succeeded")
	}
	_, err := c.Engine(4).BootstrapGroup(c.Now(), 1, core.Symmetric, ps)
	if err == nil {
		t.Error("rejoining a departed group succeeded")
	}
	runChecks(t, c, 4)
}

func TestSequencerCrashFailsOver(t *testing.T) {
	// Asymmetric mode: the sequencer (P1) crashes; the survivors agree,
	// elect P2 deterministically, and pending requests are re-unicast and
	// delivered exactly once.
	c, ps := newCluster(t, 131, 4)
	if err := c.Bootstrap(1, core.Asymmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	if err := c.Submit(3, 1, []byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(5*time.Second, allDelivered(c, 1, ps, 1)) {
		t.Fatal("pre-crash delivery incomplete")
	}
	// Cut the sequencer off from everyone, then submit: the request is
	// lost; after fail-over it must be re-unicast to P2 and delivered.
	c.Crash(1)
	if err := c.Submit(3, 1, []byte("during-failover")); err != nil {
		t.Fatal(err)
	}
	survivors := ps[1:]
	if !c.RunUntil(15*time.Second, viewExcludes(c, 1, survivors, 1)) {
		t.Fatal("sequencer never excluded")
	}
	if !c.RunUntil(10*time.Second, allDelivered(c, 1, survivors, 2)) {
		t.Fatal("pending request never delivered after fail-over")
	}
	c.Run(500 * time.Millisecond)
	runChecks(t, c, 1)
	// The new sequencer is P2: it performed the fail-over multicast.
	if got := c.Engine(2).Stats().SeqMulticasts; got == 0 {
		t.Error("new sequencer performed no multicasts")
	}
	// Exactly-once: no survivor delivered "during-failover" twice
	// (covered by MD4 duplicate check in runChecks, asserted again).
	for _, p := range survivors {
		n := 0
		for _, d := range c.History(p).Deliveries {
			if string(d.Payload) == "during-failover" {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v delivered the failed-over message %d times", p, n)
		}
	}
}

func TestMD2LivenessSenderDeliversOwn(t *testing.T) {
	// MD2: a process that continues to function as a member eventually
	// delivers its own message, even when others crash around it.
	c, ps := newCluster(t, 137, 4)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	c.Crash(4)
	if err := c.Submit(1, 1, []byte("must-arrive")); err != nil {
		t.Fatal(err)
	}
	ok := c.RunUntil(15*time.Second, func() bool {
		for _, d := range c.History(1).Deliveries {
			if string(d.Payload) == "must-arrive" {
				return true
			}
		}
		return false
	})
	if !ok {
		t.Fatal("MD2 violated: sender never delivered its own message")
	}
	runChecks(t, c, 4)
}

func TestTwoConsecutiveFailures(t *testing.T) {
	// Two crashes in sequence: two view changes, consistent everywhere.
	c, ps := newCluster(t, 139, 5)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	c.Crash(5)
	if !c.RunUntil(15*time.Second, viewExcludes(c, 1, ps[:4], 5)) {
		t.Fatal("first exclusion never happened")
	}
	for i := 0; i < 3; i++ {
		if err := c.Submit(1, 1, payload(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(100 * time.Millisecond)
	c.Crash(4)
	if !c.RunUntil(15*time.Second, viewExcludes(c, 1, ps[:3], 4, 5)) {
		t.Fatal("second exclusion never happened")
	}
	c.Run(500 * time.Millisecond)
	runChecks(t, c, 4, 5)
	ref := lastView(t, c, 1, 1)
	if ref.Size() != 3 {
		t.Errorf("final view %v, want 3 members", ref)
	}
	for _, p := range ps[1:3] {
		if v := lastView(t, c, p, 1); !v.Equal(ref) {
			t.Errorf("%v: %v != %v", p, v, ref)
		}
	}
}

func TestCrashDuringAgreementItself(t *testing.T) {
	// A second process crashes while the agreement about the first is in
	// flight; survivors must still converge.
	c, ps := newCluster(t, 149, 5)
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	c.Crash(5)
	// Crash P4 mid-agreement (right around suspicion time Ω=100ms).
	c.At(200*time.Millisecond, func() { c.Crash(4) })
	if !c.RunUntil(20*time.Second, viewExcludes(c, 1, ps[:3], 4, 5)) {
		t.Fatal("survivors never excluded both")
	}
	c.Run(500 * time.Millisecond)
	runChecks(t, c, 4, 5)
}
