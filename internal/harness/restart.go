package harness

import (
	"errors"
	"fmt"
	"os"
	"time"

	"newtop"
	"newtop/client"
	"newtop/internal/daemon"
)

// R6CrashRecovery is the durability workload: real daemons with data
// directories (WAL + snapshots, fsync=always) under background writes, one
// of them killed -9 mid-run and restarted from its disk. Like R4/R5 it
// runs the production path on the wall clock; what it adds is the
// restart: the killed daemon must come back from its own WAL and rejoin
// the cluster through the reconcile fast path, never a snapshot stream.
//
// The acceptance bar it asserts internally:
//
//   - zero acked-write loss: every Put the cluster acknowledged —
//     before the kill, during the outage, after the restart — is
//     readable (BarrierGet) from the RESTARTED daemon;
//   - the restart recovers locally (newtop_recovery_replays_total = 1)
//     and rejoins via reconcile: newtop_recovery_full_transfers_total
//     stays 0 and the fast-path counter fires;
//   - the client fleet rides out the kill on its own (failover/retry);
//   - every message drop across the fleet carries an explained reason
//     (crash, drain, formation); unexplained drops fail the run.
func R6CrashRecovery() (*Table, error) {
	t := &Table{
		Title:   "R6 — kill -9 and WAL recovery under background load",
		Columns: []string{"metric", "value"},
		Notes: []string{
			"3 daemons over memnet, data dirs with fsync=always; kill -9 P3 mid-load, restart from its WAL, rejoin via reconcile fast path",
		},
	}
	dataRoot, err := os.MkdirTemp("", "newtop-r6-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dataRoot) }()

	net := newtop.NewNetwork(newtop.WithSeed(23))
	defer net.Close()

	ids := []newtop.ProcessID{1, 2, 3}
	mkConfig := func(id newtop.ProcessID) daemon.Config {
		return daemon.Config{
			Self:              id,
			Network:           net,
			ClientAddr:        "127.0.0.1:0",
			Omega:             15 * time.Millisecond,
			HealProbeInterval: 40 * time.Millisecond,
			Initial:           ids,
			Settle:            250 * time.Millisecond,
			DrainWindow:       300 * time.Millisecond,
			InitiateTimeout:   time.Second,
			DataDir:           fmt.Sprintf("%s/p%d", dataRoot, id),
			Fsync:             "always",
			SnapshotEvery:     64,
			Logf:              func(string, ...any) {},
		}
	}
	daemons := make(map[newtop.ProcessID]*daemon.Daemon, len(ids))
	for _, id := range ids {
		d, err := daemon.Start(mkConfig(id))
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
	var addrList []string
	for _, id := range ids {
		addrs[id] = daemons[id].ClientAddr()
		addrList = append(addrList, addrs[id])
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

	// The tracked workload: R4's loss-accounting discipline — an UNKNOWN
	// outcome is retried under the same key/value until acked; only the
	// ack matters.
	acked := map[string]string{}
	seq := 0
	unackedRetries := 0
	write := func() error {
		seq++
		key, val := fmt.Sprintf("r6:%05d", seq), fmt.Sprintf("v%d", seq)
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
	waitUntil := func(d time.Duration, what string, cond func() bool) error {
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("harness: R6 timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	}

	// Background load across the whole lifecycle, started before the
	// kill and drained after the rejoin.
	bgDone := make(chan struct{})
	var bgRes writerResult
	var bgErr error
	go func() {
		defer close(bgDone)
		bgRes, bgErr = backgroundWrites(writerConfig{
			Addrs:        addrList,
			Sessions:     6,
			Rate:         200,
			Duration:     3 * time.Second,
			DrainTimeout: 20 * time.Second,
		})
	}()

	// Phase 1 — steady state with durability on.
	if err := burst(40); err != nil {
		return nil, err
	}

	// Phase 2 — kill -9 the highest daemon (the recovered daemon cannot
	// initiate the merge that readmits it, so the lowest must survive):
	// transport endpoint dies mid-flight, the WAL keeps only what fsync
	// made durable (everything, under fsync=always), nothing is flushed.
	victim := newtop.ProcessID(3)
	victimCfg := mkConfig(victim)
	preKillGroup := daemons[victim].ServingGroup()
	daemons[victim].Kill()
	delete(daemons, victim)
	killedAt := time.Now()
	if err := burst(40); err != nil {
		return nil, fmt.Errorf("after killing P%d: %w", victim, err)
	}
	outageAbsorbed := time.Since(killedAt)

	// Phase 3 — restart from the same data dir while the load keeps
	// running. Recovery is local (snapshot + WAL replay inside Start);
	// readmission is the announce → exclusion-heal → merged successor
	// group → reconcile fast path.
	restartedAt := time.Now()
	d3, err := daemon.Start(victimCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: R6 restart: %w", err)
	}
	daemons[victim] = d3
	addrs[victim] = d3.ClientAddr()
	for _, d := range daemons {
		d.SetPeerClientAddrs(addrs)
	}
	err = waitUntil(30*time.Second, "restarted daemon to rejoin", func() bool {
		g := d3.ServingGroup()
		rep, _ := d3.Replica()
		return g > preKillGroup && rep != nil && rep.CaughtUp() &&
			daemons[1].ServingGroup() == g
	})
	if err != nil {
		return nil, err
	}
	rejoinTook := time.Since(restartedAt)
	if err := burst(20); err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}

	// Zero acked-write loss, proven AT THE RESTARTED DAEMON: a fresh
	// session pinned to it must barrier-read every acked write of the
	// whole lifecycle.
	sess3, err := client.Config{
		DialTimeout:     time.Second,
		OpTimeout:       15 * time.Second,
		FailoverTimeout: 30 * time.Second,
		RetryWait:       15 * time.Millisecond,
	}.Dial(d3.ClientAddr())
	if err != nil {
		return nil, err
	}
	defer func() { _ = sess3.Close() }()
	for key, val := range acked {
		got, ok, err := sess3.BarrierGet(key)
		if err != nil || !ok || got != val {
			return nil, fmt.Errorf("harness: R6 acked write %s lost across kill -9: %q %v %v", key, got, ok, err)
		}
	}

	// The recovery counters must tell the fast-path story: one local
	// replay, no full snapshot transfer, the reconcile short circuit.
	rc := d3.Proc().Metrics().Counters
	if n := rc["newtop_recovery_replays_total"]; n != 1 {
		return nil, fmt.Errorf("harness: R6 recovery replays = %d, want 1", n)
	}
	if n := rc["newtop_recovery_full_transfers_total"]; n != 0 {
		return nil, fmt.Errorf("harness: R6 full snapshot transfers = %d, want 0 (fast path)", n)
	}
	if n := rc["newtop_recovery_fastpath_total"]; n != 1 {
		return nil, fmt.Errorf("harness: R6 fast-path rejoins = %d, want 1", n)
	}

	// Drain the background writer; its sessions rode the same lifecycle.
	<-bgDone
	if bgErr != nil {
		return nil, fmt.Errorf("harness: R6 background writer: %w", bgErr)
	}

	// Every drop across the fleet (including the restarted incarnation)
	// must be explained by the crash/drain/formation lifecycle.
	explainedDrops, err := checkDrops(daemons)
	if err != nil {
		return nil, fmt.Errorf("harness: R6 %w", err)
	}

	st := sess.Stats()
	fsyncs := rc["newtop_wal_fsyncs_total"]
	t.AddRow("acked writes", fmt.Sprintf("%d (all verified at the restarted daemon, zero lost)", len(acked)))
	t.AddRow("unacked writes retried by caller", fmt.Sprintf("%d", unackedRetries))
	t.AddRow("session failovers / redirects / retries", fmt.Sprintf("%d / %d / %d", st.Failovers, st.Redirects, st.Retries))
	t.AddRow("kill -9 + 40 writes absorbed in (ms)", ms(outageAbsorbed))
	t.AddRow("restart → rejoined serving group (ms)", ms(rejoinTook))
	t.AddRow("recovery", fmt.Sprintf("%d replay, %d entries, %d truncated",
		rc["newtop_recovery_replays_total"], rc["newtop_recovery_replayed_entries_total"], rc["newtop_recovery_truncated_records_total"]))
	t.AddRow("rejoin path", fmt.Sprintf("fastpath=%d full_transfers=%d",
		rc["newtop_recovery_fastpath_total"], rc["newtop_recovery_full_transfers_total"]))
	t.AddRow("WAL fsyncs at restarted daemon", fmt.Sprintf("%d", fsyncs))
	t.AddRow("background writer", fmt.Sprintf("%d scheduled, %d completed, %d errors, %d unfinished",
		bgRes.Scheduled, bgRes.Completed, bgRes.Errors, bgRes.Unfinished))
	t.AddRow("drops (all explained by crash/drain/formation)", fmt.Sprintf("%d", explainedDrops))
	return t, nil
}
