package sim_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"newtop/internal/check"
	"newtop/internal/core"
	"newtop/internal/sim"
	"newtop/internal/types"
)

const (
	exitOmega  = 20 * time.Millisecond
	exitLatMin = 2 * time.Millisecond
	exitLatMax = 3 * time.Millisecond
)

// exitCluster boots n processes in one symmetric group and lets them
// exchange a little traffic, so every member has heard from every other.
func exitCluster(t *testing.T, seed int64, n int) (*sim.Cluster, []types.ProcessID) {
	t.Helper()
	c := sim.New(seed, sim.WithLatency(exitLatMin, exitLatMax))
	var ps []types.ProcessID
	for i := 1; i <= n; i++ {
		c.AddProcess(core.Config{Self: types.ProcessID(i), Omega: exitOmega})
		ps = append(ps, types.ProcessID(i))
	}
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if err := c.Submit(p, 1, []byte(fmt.Sprintf("warm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(50 * time.Millisecond)
	return c, ps
}

// excludedAt returns when p first installed a view of g without x.
func excludedAt(c *sim.Cluster, p types.ProcessID, g types.GroupID, x types.ProcessID) (time.Time, bool) {
	for _, vc := range c.History(p).Views[g] {
		if !vc.View.Contains(x) {
			return vc.At, true
		}
	}
	return time.Time{}, false
}

// A process that exits on a live host is excluded within a few link
// latencies: the peer-down hint replaces Ω of silence.
func TestExitExcludesWithinLinkLatencies(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, ps := exitCluster(t, seed, 4)
		// Traffic in flight when the victim exits: its hints trail it.
		if err := c.Submit(4, 1, []byte("last words")); err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(1, 1, []byte("concurrent")); err != nil {
			t.Fatal(err)
		}
		exit := c.Now()
		c.Exit(4)
		c.Run(time.Second)
		for _, p := range ps[:3] {
			at, ok := excludedAt(c, p, 1, 4)
			if !ok {
				t.Fatalf("seed %d: P%v never excluded the exited P4", seed, p)
			}
			if took := at.Sub(exit); took > 5*exitLatMax {
				t.Errorf("seed %d: P%v excluded P4 %v after its exit, want ≤ 5 link latencies (%v)", seed, p, took, 5*exitLatMax)
			}
		}
		if err := check.New(c, []types.ProcessID{4}).All().Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// After agreement, a view installs once every survivor's D passes lnmn,
// the victim's last number. In a quiet group that is often the victim's
// latest time-silence null, and a survivor whose own last message is
// numbered below it owes no prompt null (Flush answers peer data only).
// The detection itself must make that survivor send one: exclusion then
// takes a few link latencies instead of waiting for the survivor's next
// time-silence null, up to ω + ω/2 later.
func TestExitAfterQuietPhaseSkipsTimeSilence(t *testing.T) {
	const omega = 200 * time.Millisecond
	for seed := int64(1); seed <= 5; seed++ {
		c := sim.New(seed, sim.WithLatency(exitLatMin, exitLatMax), sim.WithTickEvery(time.Millisecond))
		ps := []types.ProcessID{1, 2, 3, 4}
		for _, p := range ps {
			c.AddProcess(core.Config{Self: p, Omega: omega})
		}
		if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
			t.Fatal(err)
		}
		last := make(map[types.ProcessID]types.MsgNum) // highest number each process sent
		c.CountBytes(func(m *types.Message) int {
			if (m.Kind == types.KindData || m.Kind == types.KindNull) && m.Num > last[m.Sender] {
				last[m.Sender] = m.Num
			}
			return 0
		})
		// P1..P3 send concurrently at 50 ms; only P4 owes them a prompt
		// null, so its time-silence phase trails theirs by a link latency.
		// Their nulls at 250 ms precede P4's, which is numbered above all
		// of them; P4 exits once its null has landed everywhere.
		for _, p := range ps[:3] {
			c.At(50*time.Millisecond, func() {
				if err := c.Submit(p, 1, []byte(fmt.Sprintf("from-%v", p))); err != nil {
					t.Error(err)
				}
			})
		}
		c.Run(260 * time.Millisecond)
		for _, p := range ps[:3] {
			if last[p] >= last[4] {
				t.Fatalf("seed %d: %v last sent %d, not below P4's %d: the quiet phase did not set up", seed, p, last[p], last[4])
			}
		}
		exit := c.Now()
		c.Exit(4)
		c.Run(time.Second)
		for _, p := range ps[:3] {
			at, ok := excludedAt(c, p, 1, 4)
			if !ok {
				t.Fatalf("seed %d: %v never excluded the exited P4", seed, p)
			}
			if took := at.Sub(exit); took > 5*exitLatMax {
				t.Errorf("seed %d: %v excluded P4 %v after its exit, want ≤ 5 link latencies (%v) ≪ ω (%v)", seed, p, took, 5*exitLatMax, omega)
			}
		}
		if err := check.New(c, []types.ProcessID{4}).All().Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// A silent crash gives no hint: only Ω of silence suspects the victim, so
// the backstop still takes at least Ω.
func TestSilentCrashStillWaitsOmega(t *testing.T) {
	omegaBig := core.DefaultSuspicionFactor * exitOmega
	c, ps := exitCluster(t, 7, 4)
	// The victim's last message reaches the survivors after the crash, so
	// no survivor's silence clock for P4 starts before it.
	if err := c.Submit(4, 1, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	crash := c.Now()
	c.Crash(4)
	c.Run(time.Second)
	for _, p := range ps[:3] {
		for _, ev := range c.History(p).Events {
			if ev.Kind == sim.EvSuspect && ev.Susp.Proc == 4 && ev.At.Sub(crash) < omegaBig {
				t.Errorf("P%v suspected P4 %v after a silent crash, want ≥ Ω (%v)", p, ev.At.Sub(crash), omegaBig)
			}
		}
		at, ok := excludedAt(c, p, 1, 4)
		if !ok {
			t.Fatalf("P%v never excluded the crashed P4", p)
		}
		if took := at.Sub(crash); took < omegaBig || took > omegaBig+3*exitOmega {
			t.Errorf("P%v excluded P4 %v after the crash, want within [Ω, Ω+3ω] = [%v, %v]", p, took, omegaBig, omegaBig+3*exitOmega)
		}
	}
}

// TestExitCrashPartitionSoak mixes the three failures a member can meet —
// an exit with sockets closed, a silent crash and a partition that cuts a
// process off — under random traffic in a symmetric or asymmetric group.
// Every seed must keep every MD/VC property, and no process that was
// neither exited, crashed nor cut off may be excluded.
func TestExitCrashPartitionSoak(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { exitSoakOnce(t, seed) })
	}
}

func exitSoakOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(3) // 5..7 processes
	c := sim.New(seed, sim.WithLatency(exitLatMin, exitLatMax))
	var ps []types.ProcessID
	for i := 1; i <= n; i++ {
		c.AddProcess(core.Config{Self: types.ProcessID(i), Omega: exitOmega})
		ps = append(ps, types.ProcessID(i))
	}
	mode := core.Symmetric
	if rng.Intn(2) == 0 {
		mode = core.Asymmetric
	}
	if err := c.Bootstrap(1, mode, ps); err != nil {
		t.Fatal(err)
	}

	// Distinct victims, never P1: one exits, one crashes silently, and in
	// half the runs one is cut off from everyone else.
	perm := rng.Perm(n - 1)
	exited, crashed := ps[1+perm[0]], ps[1+perm[1]]
	failed := []types.ProcessID{exited, crashed}
	at := func() time.Duration { return time.Duration(100+rng.Intn(300)) * time.Millisecond }
	c.At(at(), func() { c.Exit(exited) })
	c.At(at(), func() { c.Crash(crashed) })
	if rng.Intn(2) == 0 {
		cut := ps[1+perm[2]]
		failed = append(failed, cut)
		var rest []types.ProcessID
		for _, p := range ps {
			if p != cut {
				rest = append(rest, p)
			}
		}
		c.At(at(), func() { c.Partition(rest, []types.ProcessID{cut}) })
	}

	for i := 0; i < 40; i++ {
		src := ps[rng.Intn(n)]
		pl := []byte(fmt.Sprintf("s%d-%d", seed, i))
		c.At(time.Duration(60+rng.Intn(500))*time.Millisecond, func() {
			_ = c.Submit(src, 1, pl) // fails once src has failed
		})
	}
	c.Run(5 * time.Second)

	if err := check.New(c, failed).All().Err(); err != nil {
		t.Fatal(err)
	}
	isFailed := func(p types.ProcessID) bool {
		for _, f := range failed {
			if f == p {
				return true
			}
		}
		return false
	}
	for _, p := range ps {
		if isFailed(p) {
			continue
		}
		v, ok := check.FinalView(c, p, 1)
		if !ok {
			t.Fatalf("P%v has no view", p)
		}
		for _, q := range ps {
			if !isFailed(q) && !v.Contains(q) {
				t.Errorf("P%v excluded healthy P%v (view %v)", p, q, v)
			}
			if isFailed(q) && v.Contains(q) {
				t.Errorf("P%v still holds failed P%v (view %v)", p, q, v)
			}
		}
	}
}
