package harness

import (
	"errors"
	"fmt"
	"time"

	"newtop"
	"newtop/client"
	"newtop/internal/daemon"
)

// R4ClientFailover is the first externally-driven workload: real daemons
// (internal/daemon) over an in-memory network, serving a real client
// session over loopback TCP, under sustained external writes — through a
// daemon crash and through a whole partition→heal→reconcile cycle. Unlike
// the sim-based scenarios it runs on the wall clock: the point is the
// production code path, client wire protocol to replica ack, under real
// concurrency.
//
// The acceptance bar it asserts internally:
//
//   - zero acked-write loss: every Put the cluster acknowledged is
//     readable (BarrierGet) after the crash, and after the merge;
//   - read-your-writes holds at every step of the session, across the
//     failover;
//   - the client reconnects, redirects and retries on its own — the
//     workload loop never handles an endpoint choice;
//   - superseded groups go quiet: once service cut over to the merged
//     group, the old group is left and its transmission count freezes;
//   - large values survive the same lifecycle: the daemons run with a
//     ring dissemination threshold, so 16 KiB writes replicate over the
//     view ring while it has ≥3 members, fall back to direct sends in
//     the singleton partition views, and cross the heal/reconcile merge
//     bit-intact.
func R4ClientFailover() (*Table, error) {
	t := &Table{
		Title:   "R4 — client routing & failover under a daemon kill and a partition/heal cycle",
		Columns: []string{"metric", "value"},
		Notes: []string{
			"3 daemons over memnet (ring threshold 4 KiB), client over loopback TCP; kill the pinned daemon, then partition/heal the survivors",
		},
	}
	net := newtop.NewNetwork(newtop.WithSeed(11))
	defer net.Close()

	ids := []newtop.ProcessID{1, 2, 3}
	daemons := make(map[newtop.ProcessID]*daemon.Daemon, len(ids))
	for _, id := range ids {
		d, err := daemon.Start(daemon.Config{
			Self:              id,
			Network:           net,
			ClientAddr:        "127.0.0.1:0",
			Omega:             15 * time.Millisecond,
			HealProbeInterval: 40 * time.Millisecond,
			Initial:           ids,
			RingThreshold:     4096,
			Settle:            250 * time.Millisecond,
			DrainWindow:       300 * time.Millisecond,
			InitiateTimeout:   time.Second,
			TraceSampleEvery:  1, // stamp every data message: the dump below reports real latency distributions
			Logf:              func(string, ...any) {},
		})
		if err != nil {
			return nil, err
		}
		daemons[id] = d
	}
	defer func() {
		for _, d := range daemons {
			_ = d.Close()
		}
	}()
	addrs := make(map[newtop.ProcessID]string, len(ids))
	byAddr := make(map[string]newtop.ProcessID, len(ids))
	var addrList []string
	for _, id := range ids {
		a := daemons[id].ClientAddr()
		addrs[id] = a
		byAddr[a] = id
		addrList = append(addrList, a)
	}
	for _, d := range daemons {
		d.SetPeerClientAddrs(addrs)
	}

	sess, err := client.Config{
		DialTimeout:     time.Second,
		OpTimeout:       15 * time.Second,
		FailoverTimeout: 30 * time.Second,
		RetryWait:       15 * time.Millisecond,
	}.Dial(addrList...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sess.Close() }()

	// The workload: acked Puts with periodic read-your-writes checks. A
	// write that returns ErrUnacked is retried under the same key/value
	// (idempotent by content) until acked — only the ack matters for the
	// loss accounting.
	acked := map[string]string{}
	seq := 0
	unackedRetries := 0
	write := func() error {
		seq++
		key, val := fmt.Sprintf("k:%05d", seq), fmt.Sprintf("v%d", seq)
		for {
			err := sess.Put(key, val)
			if err == nil {
				acked[key] = val
				if seq%10 == 0 { // read-your-writes spot check
					got, ok, err := sess.Get(key)
					if err != nil || !ok || got != val {
						return fmt.Errorf("read-your-writes broken at %s: %q %v %v", key, got, ok, err)
					}
				}
				return nil
			}
			if errors.Is(err, client.ErrUnacked) {
				unackedRetries++
				continue
			}
			return fmt.Errorf("write %s: %w", key, err)
		}
	}
	burst := func(n int) error {
		for i := 0; i < n; i++ {
			if err := write(); err != nil {
				return err
			}
		}
		return nil
	}
	// Large writes: 16 KiB values, above the daemons' ring threshold, so
	// the replicated command frames ride the view ring whenever it has
	// enough members. Self-describing content (key repeated to length)
	// makes any truncation or relay corruption show up in verification.
	largeSeq := 0
	largeVal := func(key string) string {
		b := make([]byte, 0, 16<<10)
		for len(b) < 16<<10 {
			b = append(b, key...)
			b = append(b, '|')
		}
		return string(b)
	}
	writeLarge := func() error {
		largeSeq++
		key := fmt.Sprintf("big:%04d", largeSeq)
		val := largeVal(key)
		for {
			err := sess.Put(key, val)
			if err == nil {
				acked[key] = val
				return nil
			}
			if errors.Is(err, client.ErrUnacked) {
				unackedRetries++
				continue
			}
			return fmt.Errorf("large write %s: %w", key, err)
		}
	}
	burstLarge := func(n int) error {
		for i := 0; i < n; i++ {
			if err := writeLarge(); err != nil {
				return err
			}
		}
		return nil
	}
	waitUntil := func(d time.Duration, what string, cond func() bool) error {
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("harness: R4 timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	}

	// Phase 1 — steady state: small writes plus ring-borne large ones
	// (3-member view, ring active).
	if err := burst(40); err != nil {
		return nil, err
	}
	if err := burstLarge(6); err != nil {
		return nil, err
	}

	// Phase 2 — kill the pinned daemon mid-workload.
	victim := byAddr[sess.Pinned()]
	if victim == 0 {
		return nil, fmt.Errorf("harness: R4 client pinned to unknown address %q", sess.Pinned())
	}
	net.Crash(victim)
	_ = daemons[victim].Close()
	delete(daemons, victim)
	killedAt := time.Now()
	if err := burst(40); err != nil {
		return nil, fmt.Errorf("after killing P%d: %w", victim, err)
	}
	// Two-member view: below the ring's minimum, so large writes take the
	// direct fallback path.
	if err := burstLarge(4); err != nil {
		return nil, fmt.Errorf("after killing P%d: %w", victim, err)
	}
	killAbsorbed := time.Since(killedAt)
	failoverPin := byAddr[sess.Pinned()]
	if failoverPin == victim || failoverPin == 0 {
		return nil, fmt.Errorf("harness: R4 session still pinned to the dead daemon")
	}
	// Every write acked so far (including pre-crash acks) must be
	// readable post-crash — acked means replicated.
	for key, val := range acked {
		got, ok, err := sess.BarrierGet(key)
		if err != nil || !ok || got != val {
			return nil, fmt.Errorf("harness: R4 acked write %s lost after crash: %q %v %v", key, got, ok, err)
		}
	}
	survivedCrash := len(acked)

	// Phase 3 — partition the two survivors, keep writing on the pinned
	// side, heal, and let them reconcile into a merged group.
	var survivors []newtop.ProcessID
	for id := range daemons {
		survivors = append(survivors, id)
	}
	a, b := survivors[0], survivors[1]
	net.Partition([]newtop.ProcessID{a}, []newtop.ProcessID{b})
	err = waitUntil(30*time.Second, "survivors to stabilise apart", func() bool {
		for _, id := range survivors {
			_, g := daemons[id].Replica()
			v, err := daemons[id].Proc().View(g)
			if err != nil || v.Size() != 1 {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if err := burst(30); err != nil { // singleton-view writes on the pinned side
		return nil, err
	}
	if err := burstLarge(4); err != nil { // large values written INTO the partition
		return nil, err
	}
	preMergeGroup := daemons[a].ServingGroup()
	net.Heal()
	healedAt := time.Now()
	err = waitUntil(60*time.Second, "merged-group reconciliation", func() bool {
		for _, id := range survivors {
			rep, g := daemons[id].Replica()
			if g <= preMergeGroup || rep == nil || !rep.CaughtUp() {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	mergedAt := time.Now()
	mergedGroup := daemons[a].ServingGroup()
	// Writes continue against the merged group (the client rode out any
	// RETRY responses during the merge on its own).
	if err := burst(20); err != nil {
		return nil, fmt.Errorf("after merge: %w", err)
	}
	if err := burstLarge(6); err != nil {
		return nil, fmt.Errorf("after merge: %w", err)
	}

	// Zero acked-write loss across the whole lifecycle.
	for key, val := range acked {
		got, ok, err := sess.BarrierGet(key)
		if err != nil || !ok || got != val {
			return nil, fmt.Errorf("harness: R4 acked write %s lost after merge: %q %v %v", key, got, ok, err)
		}
	}

	// Superseded groups went quiet: both survivors left every pre-merge
	// group and its transmission count froze.
	err = waitUntil(30*time.Second, "old groups to be left", func() bool {
		for _, id := range survivors {
			for g := newtop.GroupID(1); g < mergedGroup; g++ {
				if _, err := daemons[id].Proc().View(g); !errors.Is(err, newtop.ErrLeftGroup) {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	oldSends := func() map[newtop.ProcessID]uint64 {
		out := make(map[newtop.ProcessID]uint64, len(survivors))
		for _, id := range survivors {
			var total uint64
			counters := daemons[id].Proc().Metrics().Counters
			for g := newtop.GroupID(1); g < mergedGroup; g++ {
				total += counters[fmt.Sprintf(`newtop_node_group_sends_total{group="%d"}`, g)]
			}
			out[id] = total
		}
		return out
	}
	before := oldSends()
	time.Sleep(200 * time.Millisecond) // >13ω of would-be zombie traffic
	for id, after := range oldSends() {
		if after != before[id] {
			return nil, fmt.Errorf("harness: R4 old-group traffic still flowing at P%d: %d -> %d", id, before[id], after)
		}
	}

	// Observability dump: the unified registry must explain the run.
	// Delivery-stage latencies come from the tracer (sampling every data
	// message); every drop must carry a reason this lifecycle explains —
	// crash, partition, drain — and the genuine-error reasons (decode
	// failures, overflow) must be zero, or the run fails.
	snap := daemons[a].Proc().Metrics()
	stageHist := func(stage string) string {
		h, ok := snap.Histograms[`newtop_trace_stage_ns{stage="`+stage+`"}`]
		if !ok || h.Count == 0 {
			return "no samples"
		}
		return fmt.Sprintf("p50=%s p99=%s (n=%d)",
			time.Duration(h.P50).Round(time.Microsecond),
			time.Duration(h.P99).Round(time.Microsecond), h.Count)
	}
	explainedDrops, err := checkDrops(daemons)
	if err != nil {
		return nil, fmt.Errorf("harness: R4 %w", err)
	}

	st := sess.Stats()
	t.AddRow("acked writes", fmt.Sprintf("%d (all verified twice, zero lost)", len(acked)))
	t.AddRow("16 KiB writes across ring/fallback/partition/merge", fmt.Sprintf("%d (bit-intact)", largeSeq))
	t.AddRow("acked writes verified right after the crash", fmt.Sprintf("%d", survivedCrash))
	t.AddRow("unacked writes retried by caller", fmt.Sprintf("%d", unackedRetries))
	t.AddRow("session failovers / redirects / retries", fmt.Sprintf("%d / %d / %d", st.Failovers, st.Redirects, st.Retries))
	t.AddRow("session pin", fmt.Sprintf("P%d killed -> P%d", victim, failoverPin))
	t.AddRow("kill + 40 writes absorbed in (ms)", ms(killAbsorbed))
	t.AddRow("heal → merged serving group", fmt.Sprintf("g%d in %s ms", mergedGroup, ms(mergedAt.Sub(healedAt))))
	t.AddRow("old groups quiet", "left + send counters frozen")
	t.AddRow("delivery latency send→receive", stageHist("receive"))
	t.AddRow("delivery latency →delivered", stageHist("delivered"))
	t.AddRow("delivery latency →applied", stageHist("applied"))
	t.AddRow("drops (all explained by crash/partition/drain)", fmt.Sprintf("%d", explainedDrops))
	return t, nil
}
