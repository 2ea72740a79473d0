package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"newtop"
	"newtop/client"
	"newtop/internal/types"
)

// R5ShardMove exercises the sharded service under its most delicate
// operation: a live range move between shard groups while clients keep
// writing. A 3-daemon fleet serves two shard arcs behind the meta-group
// shard map; a background writer offers steady load across the whole
// keyspace, a tracked verification session writes into both arcs,
// and mid-run one arc is migrated to a freshly formed group (snapshot cut
// at the fence, incumbent seeding, formation, epoch-bumping commit,
// source purge — §5.3: groups are never rejoined, reconfiguration forms
// new ones).
//
// The acceptance bar it asserts internally:
//
//   - zero acked-write loss: every Put acknowledged before, during or
//     after the move is readable (BarrierGet) from whichever group owns
//     its key afterwards;
//   - read-your-writes holds across the epoch bump on the same session:
//     plain Gets of pre-move writes answer correctly after the session
//     has been re-routed to the range's new owner;
//   - the session observes the map change as a cache refresh (epoch bump)
//     and keeps routing on its own — the workload loop never picks an
//     endpoint;
//   - every message drop across the fleet carries an explained reason
//     (formation, purge, drain); unexplained drops fail the run.
func R5ShardMove() (*Table, error) {
	t := &Table{
		Title:   "R5 — live shard-range move under background load",
		Columns: []string{"metric", "value"},
		Notes: []string{
			"3 daemons, 2 shard groups (replication 2) + meta group; move one arc to a new group mid-load",
		},
	}
	fleet, err := startFleet(2, 17)
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	mid := uint64(1) << 63 // the boundary between the two initial arcs

	sess, err := client.Config{
		DialTimeout:     time.Second,
		OpTimeout:       15 * time.Second,
		FailoverTimeout: 30 * time.Second,
		RetryWait:       10 * time.Millisecond,
	}.Dial(fleet.addrs...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sess.Close() }()

	// keyIn mints fresh keys hashing into [lo, hi) (hi == 0: ring top).
	keySeq := 0
	keyIn := func(lo, hi uint64) string {
		for {
			keySeq++
			k := fmt.Sprintf("r5:%06d", keySeq)
			if h := types.KeyHash(k); h >= lo && (hi == 0 || h < hi) {
				return k
			}
		}
	}

	// The tracked workload: acked Puts with read-your-writes spot checks,
	// exactly R4's loss-accounting discipline — an UNKNOWN outcome is
	// retried under the same key/value (idempotent by content) until
	// acked; only the ack matters.
	var ackedMu sync.Mutex
	acked := map[string]string{}
	unackedRetries := 0
	write := func(lo, hi uint64) error {
		key := keyIn(lo, hi)
		val := "v:" + key
		for {
			err := sess.Put(key, val)
			if err == nil {
				ackedMu.Lock()
				acked[key] = val
				ackedMu.Unlock()
				if keySeq%8 == 0 { // read-your-writes spot check
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
			// Alternate arcs so both shard groups order tracked writes.
			lo, hi := uint64(0), mid
			if i%2 == 1 {
				lo, hi = mid, uint64(0)
			}
			if err := write(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	// Background load across the whole keyspace for the entire
	// lifecycle, started before the move and drained after it.
	bgDone := make(chan struct{})
	var bgRes writerResult
	var bgErr error
	go func() {
		defer close(bgDone)
		bgRes, bgErr = backgroundWrites(writerConfig{
			Addrs:        fleet.addrs,
			Sessions:     8,
			Rate:         250,
			Duration:     3 * time.Second,
			DrainTimeout: 15 * time.Second,
		})
	}()

	// Phase 1 — steady state: tracked writes land in both arcs and the
	// session learns both shard routes from redirects.
	if err := burst(40); err != nil {
		return nil, err
	}
	epochBefore := sess.RouteEpoch()
	if epochBefore == 0 {
		return nil, errors.New("harness: R5 session never learned the shard map")
	}
	preMove := 0
	ackedMu.Lock()
	preMove = len(acked)
	ackedMu.Unlock()

	// Phase 2 — move the high arc [mid, 0) from its incumbent group
	// (members P2, P3) to a freshly formed group of {P3, P1}, driven by
	// P3 (a member of both, so it doubles as snapshot streamer and
	// incumbent), while the tracked writer keeps hammering both arcs.
	moveDone := make(chan struct{})
	var target newtop.GroupID
	var moveErr error
	movedAt := time.Now()
	go func() {
		defer close(moveDone)
		target, moveErr = fleet.daemons[3].MoveRange(mid, 0, []newtop.ProcessID{3, 1})
	}()
	for {
		select {
		case <-moveDone:
		default:
			if err := burst(4); err != nil {
				return nil, fmt.Errorf("during move: %w", err)
			}
			continue
		}
		break
	}
	if moveErr != nil {
		return nil, fmt.Errorf("harness: R5 MoveRange: %w", moveErr)
	}
	moveTook := time.Since(movedAt)

	// Phase 3 — post-move: writes keep acking into the new owner, and the
	// session's route cache refreshes on the epoch bump.
	if err := burst(30); err != nil {
		return nil, fmt.Errorf("after move: %w", err)
	}
	epochAfter := sess.RouteEpoch()
	if epochAfter <= epochBefore {
		return nil, fmt.Errorf("harness: R5 session never saw the epoch bump (%d -> %d)", epochBefore, epochAfter)
	}
	if sess.Stats().ShardRefresh == 0 {
		return nil, errors.New("harness: R5 route cache never refreshed across the move")
	}

	// Read-your-writes across the bump: plain Gets (not barrier) of
	// pre-move acked writes must answer from the re-routed session.
	rywChecked := 0
	ackedMu.Lock()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	ackedMu.Unlock()
	for _, k := range keys {
		if types.KeyHash(k) < mid || rywChecked >= 10 {
			continue
		}
		ackedMu.Lock()
		want := acked[k]
		ackedMu.Unlock()
		got, ok, err := sess.Get(k)
		if err != nil || !ok || got != want {
			return nil, fmt.Errorf("harness: R5 read-your-writes broken across the epoch bump at %s: %q %v %v", k, got, ok, err)
		}
		rywChecked++
	}

	// Drain the background load before the final verification sweep.
	<-bgDone
	if bgErr != nil {
		return nil, fmt.Errorf("harness: R5 background writer: %w", bgErr)
	}
	if frac := float64(bgRes.Errors) / float64(bgRes.Scheduled); frac > 0.02 {
		return nil, fmt.Errorf("harness: R5 background error fraction %.4f (%d of %d) above 2%%",
			frac, bgRes.Errors, bgRes.Scheduled)
	}
	if bgRes.Unfinished > 0 {
		return nil, fmt.Errorf("harness: R5 background writer stranded %d ops", bgRes.Unfinished)
	}

	// Zero acked-write loss across the whole lifecycle, from whichever
	// group owns each key now.
	ackedMu.Lock()
	final := make(map[string]string, len(acked))
	for k, v := range acked {
		final[k] = v
	}
	ackedMu.Unlock()
	for key, val := range final {
		got, ok, err := sess.BarrierGet(key)
		if err != nil || !ok || got != val {
			return nil, fmt.Errorf("harness: R5 acked write %s lost across the move: %q %v %v", key, got, ok, err)
		}
	}

	// Every drop across the fleet must be explained (formation, purge,
	// drain); anything else is silent loss.
	if _, err := checkDrops(fleet.daemons); err != nil {
		return nil, fmt.Errorf("harness: R5 %w", err)
	}

	st := sess.Stats()
	t.AddRow("acked tracked writes", fmt.Sprintf("%d (all verified, zero lost)", len(final)))
	t.AddRow("tracked writes acked before the move", fmt.Sprintf("%d", preMove))
	t.AddRow("unacked writes retried by caller", fmt.Sprintf("%d", unackedRetries))
	t.AddRow("moved arc", fmt.Sprintf("[%#x, ring top) -> g%d in %s ms", mid, target, ms(moveTook)))
	t.AddRow("shard-map epoch", fmt.Sprintf("%d -> %d (session refreshed %d times)", epochBefore, epochAfter, st.ShardRefresh))
	t.AddRow("read-your-writes across the bump", fmt.Sprintf("%d pre-move keys re-read plain", rywChecked))
	t.AddRow("session shard-routed ops / redirects / retries", fmt.Sprintf("%d / %d / %d", st.ShardRouted, st.Redirects, st.Retries))
	t.AddRow("background writes", fmt.Sprintf("%d completed, %d errors, %d unfinished @ 250 ops/s offered",
		bgRes.Completed, bgRes.Errors, bgRes.Unfinished))
	t.AddRow("background p99 (from slot)", fmt.Sprintf("%s ms", ms(bgRes.P99)))
	t.AddRow("drops", "all explained (formation/purge/drain)")
	return t, nil
}
