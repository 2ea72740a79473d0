package harness

import (
	"fmt"
	"time"

	"newtop/internal/baseline"
	"newtop/internal/check"
	"newtop/internal/core"
	"newtop/internal/types"
	"newtop/internal/wire"
	"newtop/internal/workload"
)

// This file implements the experiments — one function per
// figure/example/claim of the paper. Each returns a Table whose rows are
// the series the paper's qualitative claims predict, and whose notes
// state the expected shape.

// sampleDataMessage builds a representative Newtop data multicast with
// realistic field magnitudes (long-running clock values).
func sampleDataMessage(payload int) *types.Message {
	return &types.Message{
		Kind: types.KindData, Group: 12, Sender: 1000, Origin: 1000,
		Num: 5_000_000, Seq: 40_000, LDN: 4_999_900,
		Payload: make([]byte, payload),
	}
}

// C1HeaderOverhead compares Newtop's protocol header against the
// vector-clock baseline as group size grows (§6: "low and bounded message
// space overhead (which is even smaller than the overhead of ISIS vector
// clocks)"). Newtop's header is constant; the vector clock grows by one
// counter per member.
func C1HeaderOverhead(sizes []int) *Table {
	t := &Table{
		Title:   "C1 — protocol header bytes per multicast vs group size",
		Columns: []string{"n", "newtop", "vector-clock", "sequencer", "vc/newtop"},
		Notes: []string{
			"newtop header is independent of group size and of how many groups the sender is in",
			"vector-clock counters valued ~40k (long-running run); same varint coding for all three",
		},
	}
	nt := wire.Overhead(sampleDataMessage(64))
	for _, n := range sizes {
		vt := make([]uint64, n)
		for i := range vt {
			vt[i] = 40_000
		}
		vc := (&baseline.VCMessage{Sender: n - 1, VT: vt}).HeaderBytes()
		sq := (&baseline.SeqMessage{Seq: 40_000, Sender: n - 1}).HeaderBytes()
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", nt),
			fmt.Sprintf("%d", vc),
			fmt.Sprintf("%d", sq),
			f2(float64(vc)/float64(nt)),
		)
	}
	return t
}

// runOrdered drives a single-group run with uniform traffic to completion
// and collects metrics.
func runOrdered(n int, mode core.OrderMode, perMember int, p Params) (Metrics, error) {
	groups := workload.SingleGroup(n, mode)
	r, err := NewRun(n, groups, p)
	if err != nil {
		return Metrics{}, err
	}
	subs := workload.UniformTraffic(groups, perMember, 2)
	r.Apply(subs)
	want := n * perMember // deliveries per process
	ok := r.Cluster.RunUntil(60*time.Second, func() bool {
		for _, pid := range r.Cluster.Processes() {
			if len(r.Cluster.History(pid).Deliveries) < want {
				return false
			}
		}
		return true
	})
	if !ok {
		return Metrics{}, fmt.Errorf("harness: run n=%d mode=%v never completed", n, mode)
	}
	return r.Collect(), nil
}

// C2SymVsAsym compares the symmetric (§4.1) and asymmetric (§4.2)
// protocols across group sizes: transmissions per delivery, wire bytes,
// and delivery latency.
func C2SymVsAsym(sizes []int) (*Table, error) {
	t := &Table{
		Title: "C2 — symmetric vs asymmetric total order (5 msgs/member, ω=20ms)",
		Columns: []string{"n", "sym msg/dlv", "asym msg/dlv", "sym lat(ms)", "asym lat(ms)",
			"asym-static lat(ms)", "sym B/msg", "asym B/msg"},
		Notes: []string{
			"symmetric: n-1 transmissions per multicast, direct; asymmetric: unicast + n-1 via sequencer",
			"latency = submit→delivery mean over (message, receiver)",
			"asym-static = §4.2 failure-free configuration: delivery straight from the sequencer stream,",
			"no ω-paced safety boundary — the paper's 'delivered straightaway'; the fault-tolerant",
			"configuration gates on min(RV) so the §5.2 agreement boundary stays consistent",
		},
	}
	for _, n := range sizes {
		sym, err := runOrdered(n, core.Symmetric, 5, Params{Seed: 42})
		if err != nil {
			return nil, err
		}
		asym, err := runOrdered(n, core.Asymmetric, 5, Params{Seed: 42})
		if err != nil {
			return nil, err
		}
		asymStatic, err := runOrdered(n, core.Asymmetric, 5, Params{Seed: 42, StaticMode: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			f2(sym.MsgsPerDelivery()), f2(asym.MsgsPerDelivery()),
			ms(sym.MeanLatency), ms(asym.MeanLatency), ms(asymStatic.MeanLatency),
			f2(sym.HeaderBytesPerMsg()), f2(asym.HeaderBytesPerMsg()),
		)
	}
	return t, nil
}

// C3SendBlocking measures the §4.3 claim: "new multicast in a given group
// is blocked only if any multicast made in a different asymmetric group is
// awaiting distribution by the sequencer. If only symmetric version is
// used, Newtop is totally non-blocking on send operations."
func C3SendBlocking() (*Table, error) {
	t := &Table{
		Title:   "C3 — send blocking vs share of asymmetric traffic (P2 in sym g1 + asym g2)",
		Columns: []string{"asym share", "blocked sends", "total submits", "mean lat(ms)"},
		Notes: []string{
			"blocking affects only submits issued while an earlier unicast awaits its sequencer",
		},
	}
	for _, share := range []int{0, 25, 50, 100} {
		groups := []workload.Group{
			{ID: 1, Mode: core.Symmetric, Members: []types.ProcessID{1, 2, 3}},
			{ID: 2, Mode: core.Asymmetric, Members: []types.ProcessID{1, 2, 4}}, // sequencer P1
		}
		r, err := NewRun(4, groups, Params{Seed: 7})
		if err != nil {
			return nil, err
		}
		const total = 40
		asymEvery := 0
		if share > 0 {
			asymEvery = 100 / share
		}
		n := 0
		for i := 0; i < total; i++ {
			g := types.GroupID(1)
			if asymEvery > 0 && i%asymEvery == 0 {
				g = 2
			}
			pl := []byte(fmt.Sprintf("c3-%d-%d", share, i))
			at := time.Duration(i) * time.Millisecond
			gg := g
			r.Cluster.At(at, func() { _ = r.Cluster.Submit(2, gg, pl) })
			n++
		}
		ok := r.Cluster.RunUntil(60*time.Second, func() bool {
			return len(r.Cluster.History(2).Deliveries) >= n
		})
		if !ok {
			return nil, fmt.Errorf("harness: C3 share=%d never completed", share)
		}
		m := r.Collect()
		t.AddRow(fmt.Sprintf("%d%%", share),
			fmt.Sprintf("%d", m.BlockedSends),
			fmt.Sprintf("%d", n),
			ms(m.MeanLatency))
	}
	return t, nil
}

// C4TimeSilence measures the null-message overhead of the time-silence
// mechanism (§4.1) and of prompt nulls as a function of ω and the
// application traffic rate.
func C4TimeSilence() (*Table, error) {
	t := &Table{
		Title:   "C4 — null overhead: prompt and time-silence nulls (n=5 symmetric, 20 msgs/member)",
		Columns: []string{"ω(ms)", "spacing(ms)", "nulls/data", "mean lat(ms)"},
		Notes: []string{
			"each receiver answers a burst of peer data with one prompt null, so after the first round latency is a round trip whatever ω is",
			"idle groups pay ~1 time-silence null per ω per member; any send resets the ω timer",
		},
	}
	for _, omega := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		for _, spacing := range []int{2, 20, 100} {
			groups := workload.SingleGroup(5, core.Symmetric)
			r, err := NewRun(5, groups, Params{Seed: 11, Omega: omega})
			if err != nil {
				return nil, err
			}
			r.Apply(workload.UniformTraffic(groups, 20, spacing))
			want := 5 * 20
			ok := r.Cluster.RunUntil(300*time.Second, func() bool {
				for _, pid := range r.Cluster.Processes() {
					if len(r.Cluster.History(pid).Deliveries) < want {
						return false
					}
				}
				return true
			})
			if !ok {
				return nil, fmt.Errorf("harness: C4 ω=%v spacing=%d stalled", omega, spacing)
			}
			m := r.Collect()
			t.AddRow(
				fmt.Sprintf("%d", omega/time.Millisecond),
				fmt.Sprintf("%d", spacing),
				f2(float64(m.Nulls)/float64(m.DataSent)),
				ms(m.MeanLatency),
			)
		}
	}
	return t, nil
}

// C5Formation measures the §5.3 group-formation protocol: control
// messages and elapsed time until every member reports GroupReady.
func C5Formation(sizes []int) (*Table, error) {
	t := &Table{
		Title:   "C5 — dynamic group formation cost (§5.3 two-phase + start-group)",
		Columns: []string{"n", "ctrl mcasts", "p2p msgs", "time(ms)"},
		Notes: []string{
			"p2p: invite (n-1) + votes (n(n-1)) + start-group (n(n-1)) + a few nulls; vote diffusion dominates",
		},
	}
	for _, n := range sizes {
		r, err := NewRun(n, nil, Params{Seed: 13})
		if err != nil {
			return nil, err
		}
		members := workload.Procs(n)
		if err := r.Cluster.CreateGroup(1, 9, core.Symmetric, members); err != nil {
			return nil, err
		}
		start := r.Cluster.Now()
		ok := r.Cluster.RunUntil(60*time.Second, func() bool {
			for _, pid := range members {
				if !r.Cluster.Engine(pid).GroupReady(9) {
					return false
				}
			}
			return true
		})
		if !ok {
			return nil, fmt.Errorf("harness: C5 n=%d formation stalled", n)
		}
		var ctrl uint64
		for _, pid := range members {
			ctrl += r.Cluster.Engine(pid).Stats().CtrlSent
		}
		readyAt := r.Cluster.Now()
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", ctrl),
			fmt.Sprintf("%d", r.Cluster.TotalMessages()), ms(readyAt.Sub(start)))
	}
	return t, nil
}

// C6Membership measures crash-to-new-view latency and agreement traffic
// (§5.2) across group sizes.
func C6Membership(sizes []int) (*Table, error) {
	t := &Table{
		Title:   "C6 — membership agreement after a crash (ω=20ms, Ω=100ms)",
		Columns: []string{"n", "detect+agree(ms)", "Ω(ms)", "ctrl msgs"},
		Notes: []string{
			"latency is dominated by the suspicion timeout Ω; agreement itself adds ~2 latency rounds",
		},
	}
	for _, n := range sizes {
		groups := workload.SingleGroup(n, core.Symmetric)
		r, err := NewRun(n, groups, Params{Seed: 17})
		if err != nil {
			return nil, err
		}
		r.Cluster.Run(100 * time.Millisecond)
		var ctrlBefore uint64
		for _, pid := range r.Cluster.Processes() {
			ctrlBefore += r.Cluster.Engine(pid).Stats().CtrlSent
		}
		victim := types.ProcessID(n)
		crashAt := r.Cluster.Now()
		r.Cluster.Crash(victim)
		survivors := workload.Procs(n - 1)
		ok := r.Cluster.RunUntil(120*time.Second, func() bool {
			for _, pid := range survivors {
				vs := r.Cluster.History(pid).Views[1]
				if len(vs) == 0 || vs[len(vs)-1].View.Contains(victim) {
					return false
				}
			}
			return true
		})
		if !ok {
			return nil, fmt.Errorf("harness: C6 n=%d agreement stalled", n)
		}
		var ctrlAfter uint64
		for _, pid := range survivors {
			ctrlAfter += r.Cluster.Engine(pid).Stats().CtrlSent
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			ms(r.Cluster.Now().Sub(crashAt)),
			fmt.Sprintf("%d", 100),
			fmt.Sprintf("%d", ctrlAfter-ctrlBefore),
		)
	}
	return t, nil
}

// C7VsPropagationGraph compares Newtop's coordination-free overlapping
// groups against the Garcia-Molina/Spauster propagation graph [9] on a
// chain of overlapping groups (§6 comparison).
func C7VsPropagationGraph(chainLens []int) (*Table, error) {
	t := &Table{
		Title:   "C7 — overlapping-group ordering: Newtop vs propagation graph (chain, size 3, overlap 1)",
		Columns: []string{"k groups", "NT msg/dlv", "NT max-send/proc", "PG msg/dlv", "PG master load", "PG master"},
		Notes: []string{
			"propagation graph funnels every component message through one master (hot spot, +1 hop)",
			"Newtop orders the same workload with no cross-group coordination; load stays at the senders",
		},
	}
	const perMember = 3
	for _, k := range chainLens {
		groups, nprocs, err := workload.Chain(k, 3, 1, core.Symmetric)
		if err != nil {
			return nil, err
		}
		r, err := NewRun(nprocs, groups, Params{Seed: 19})
		if err != nil {
			return nil, err
		}
		r.Apply(workload.UniformTraffic(groups, perMember, 2))
		want := make(map[types.ProcessID]int)
		for _, g := range groups {
			for _, m := range g.Members {
				want[m] += perMember * len(g.Members)
			}
		}
		ok := r.Cluster.RunUntil(120*time.Second, func() bool {
			for pid, w := range want {
				if len(r.Cluster.History(pid).Deliveries) < w {
					return false
				}
			}
			return true
		})
		if !ok {
			return nil, fmt.Errorf("harness: C7 k=%d stalled", k)
		}
		m := r.Collect()
		var maxSend uint64
		for _, pid := range r.Cluster.Processes() {
			if s := r.Cluster.Engine(pid).Stats().MsgsSent; s > maxSend {
				maxSend = s
			}
		}

		// Propagation-graph baseline over the same workload.
		specs := make([]baseline.GroupSpec, len(groups))
		for i, g := range groups {
			ms := make([]int, len(g.Members))
			for j, p := range g.Members {
				ms[j] = int(p)
			}
			specs[i] = baseline.GroupSpec{ID: int(g.ID), Members: ms}
		}
		pg, err := baseline.NewPropGraph(specs)
		if err != nil {
			return nil, err
		}
		pgMsgs, pgDlvs := 0, 0
		for _, g := range groups {
			for _, p := range g.Members {
				for i := 0; i < perMember; i++ {
					_, hops, err := pg.Multicast(int(g.ID), int(p), nil)
					if err != nil {
						return nil, err
					}
					pgMsgs += hops
					pgDlvs += len(g.Members)
				}
			}
		}
		master, load := pg.MaxLoad()
		t.AddRow(
			fmt.Sprintf("%d", k),
			f2(m.MsgsPerDelivery()),
			fmt.Sprintf("%d", maxSend),
			f2(float64(pgMsgs)/float64(pgDlvs)),
			fmt.Sprintf("%d", load),
			fmt.Sprintf("P%d", master),
		)
	}
	return t, nil
}

// C8CyclicGroups runs the cyclic overlap structure (fig. 2 / §6) and
// verifies ordering holds with constant header cost as the cycle grows.
func C8CyclicGroups(ringSizes []int) (*Table, error) {
	t := &Table{
		Title:   "C8 — cyclic overlapping groups (ring of 2-member groups)",
		Columns: []string{"k", "msg/dlv", "mean lat(ms)", "B/msg", "order OK"},
		Notes: []string{
			"§6: receive vectors handle arbitrary (including cyclic) overlap; header stays bounded",
		},
	}
	for _, k := range ringSizes {
		groups, nprocs, err := workload.Ring(k, core.Symmetric)
		if err != nil {
			return nil, err
		}
		r, err := NewRun(nprocs, groups, Params{Seed: 23})
		if err != nil {
			return nil, err
		}
		const perMember = 3
		r.Apply(workload.UniformTraffic(groups, perMember, 2))
		ok := r.Cluster.RunUntil(120*time.Second, func() bool {
			for _, pid := range r.Cluster.Processes() {
				// Every process is in exactly 2 ring groups of size 2.
				if len(r.Cluster.History(pid).Deliveries) < 2*2*perMember {
					return false
				}
			}
			return true
		})
		if !ok {
			return nil, fmt.Errorf("harness: C8 k=%d stalled", k)
		}
		m := r.Collect()
		res := check.New(r.Cluster, nil).All()
		t.AddRow(
			fmt.Sprintf("%d", k),
			f2(m.MsgsPerDelivery()),
			ms(m.MeanLatency),
			f2(m.HeaderBytesPerMsg()),
			fmt.Sprintf("%v", res.Ok()),
		)
	}
	return t, nil
}

// C9FlowControl measures the sender window (§7 / [11]): a burst from one
// sender with varying windows.
func C9FlowControl() (*Table, error) {
	t := &Table{
		Title:   "C9 — flow control: 100-message burst, n=3 symmetric",
		Columns: []string{"window", "flow-blocked", "completion(ms)"},
		Notes: []string{
			"window 0 disables flow control; smaller windows trade burst latency for bounded unstable backlog",
		},
	}
	for _, w := range []int{0, 4, 16, 64} {
		groups := workload.SingleGroup(3, core.Symmetric)
		r, err := NewRun(3, groups, Params{Seed: 29, FlowWindow: w})
		if err != nil {
			return nil, err
		}
		const burst = 100
		for i := 0; i < burst; i++ {
			pl := []byte(fmt.Sprintf("c9-%d-%d", w, i))
			r.Cluster.At(0, func() { _ = r.Cluster.Submit(1, 1, pl) })
		}
		start := r.Cluster.Now()
		ok := r.Cluster.RunUntil(120*time.Second, func() bool {
			for _, pid := range r.Cluster.Processes() {
				if len(r.Cluster.History(pid).Deliveries) < burst {
					return false
				}
			}
			return true
		})
		if !ok {
			return nil, fmt.Errorf("harness: C9 w=%d stalled", w)
		}
		m := r.Collect()
		t.AddRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", m.FlowBlocked),
			ms(r.Cluster.Now().Sub(start)),
		)
	}
	return t, nil
}
