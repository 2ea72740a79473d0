package harness

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"newtop"
	"newtop/client"
	"newtop/internal/daemon"
	"newtop/internal/shard"
)

// A fleet's shape: fleetDaemons daemons with time-silence interval
// fleetOmega; a sharded fleet gives each shard group fleetReplication
// members.
const (
	fleetDaemons     = 3
	fleetReplication = 2
	fleetOmega       = 5 * time.Millisecond
)

// fleet is a running cluster from startFleet.
type fleet struct {
	net     *newtop.Network
	daemons map[newtop.ProcessID]*daemon.Daemon
	addrs   []string
}

// startFleet boots a wall-clock cluster: daemons over an in-memory
// inter-daemon network, each with a loopback-TCP client listener. With
// shards > 0 the key ring is cut into that many equal arcs, each owned by
// its own group, and the shard map is replicated in a meta group spanning
// every daemon; with shards = 0 the daemons serve one group. It returns
// once every daemon serves (its replica caught up; sharded: every shard
// ready and every client address published through the meta group), so
// callers never race formation.
func startFleet(shards int, seed int64) (*fleet, error) {
	f := &fleet{
		net:     newtop.NewNetwork(newtop.WithSeed(seed)),
		daemons: make(map[newtop.ProcessID]*daemon.Daemon, fleetDaemons),
	}
	ids := make([]newtop.ProcessID, 0, fleetDaemons)
	for i := 1; i <= fleetDaemons; i++ {
		ids = append(ids, newtop.ProcessID(i))
	}
	var sc *daemon.ShardConfig
	if shards > 0 {
		// Meta membership must be identical on every daemon: it is the
		// bootstrap membership of the meta group.
		sc = &daemon.ShardConfig{Meta: ids, Initial: shardAssigns(ids, shards)}
	}
	for _, id := range ids {
		d, err := daemon.Start(daemon.Config{
			Self:       id,
			Network:    f.net,
			ClientAddr: "127.0.0.1:0",
			Omega:      fleetOmega,
			Initial:    ids,
			Shard:      sc,
			Logf:       func(string, ...any) {},
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("harness: start daemon %d: %w", id, err)
		}
		f.daemons[id] = d
	}
	addrs := make(map[newtop.ProcessID]string, len(ids))
	for _, id := range ids {
		addrs[id] = f.daemons[id].ClientAddr()
		f.addrs = append(f.addrs, addrs[id])
	}
	for _, d := range f.daemons {
		d.SetPeerClientAddrs(addrs)
	}
	ready := func(d *daemon.Daemon) bool {
		if sc == nil {
			rep, _ := d.Replica()
			return rep != nil && rep.CaughtUp()
		}
		if !d.ShardsReady() {
			return false
		}
		for _, id := range ids {
			if _, ok := d.ShardMap().Addr(id); !ok {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for id, d := range f.daemons {
		for !ready(d) {
			if time.Now().After(deadline) {
				f.close()
				return nil, fmt.Errorf("harness: daemon %d never became ready", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return f, nil
}

// shardAssigns cuts the hash ring into n equal arcs and spreads the shard
// groups' memberships round-robin across ids.
func shardAssigns(ids []newtop.ProcessID, n int) []shard.Assign {
	step := ^uint64(0)/uint64(n) + 1
	assigns := make([]shard.Assign, 0, n)
	for i := 0; i < n; i++ {
		members := make([]newtop.ProcessID, 0, fleetReplication)
		for j := 0; j < fleetReplication; j++ {
			members = append(members, ids[(i+j)%len(ids)])
		}
		assigns = append(assigns, shard.Assign{
			Start:   uint64(i) * step,
			Group:   shard.FirstDataGroup + newtop.GroupID(i),
			Members: members,
		})
	}
	return assigns
}

func (f *fleet) close() {
	for _, d := range f.daemons {
		_ = d.Close()
	}
	f.net.Close()
}

// explainedDrops are the newtop_drops_total reasons that a scenario's
// lifecycle (formation, crash, partition, drain, purge) legitimately
// produces. Anything else (decode failures, overflow) is silent loss.
var explainedDrops = map[string]bool{
	`layer="core",reason="left_group"`:               true,
	`layer="core",reason="removed_member"`:           true,
	`layer="core",reason="not_member"`:               true,
	`layer="core",reason="seq_gap"`:                  true,
	`layer="core",reason="stale_view"`:               true,
	`layer="core",reason="group_gone"`:               true,
	`layer="core",reason="queued_submit_group_gone"`: true,
	`layer="ring",reason="orphan_evicted"`:           true,
	`layer="ring",reason="reassembly_abandoned"`:     true,
}

// checkDrops sums newtop_drops_total over the daemons' registries. It
// returns the explained total, or an error naming the first drop series
// outside explainedDrops.
func checkDrops(daemons map[newtop.ProcessID]*daemon.Daemon) (uint64, error) {
	var explained uint64
	for id, d := range daemons {
		for name, v := range d.Proc().Metrics().Counters {
			labels, ok := strings.CutPrefix(name, "newtop_drops_total{")
			if !ok || v == 0 {
				continue
			}
			labels = strings.TrimSuffix(labels, "}")
			if !explainedDrops[labels] {
				return 0, fmt.Errorf("unexplained drops at P%d: %s = %d", id, labels, v)
			}
			explained += v
		}
	}
	return explained, nil
}

// writerConfig tunes backgroundWrites.
type writerConfig struct {
	Addrs    []string // the cluster's client endpoints
	Sessions int      // client sessions, each pinned and routed on its own
	Rate     float64  // offered Puts per second, summed over the sessions
	Duration time.Duration
	// DrainTimeout bounds the wait after the last slot. Then the sessions
	// are closed, and what did not finish counts as unfinished.
	DrainTimeout time.Duration
}

// writerResult counts a backgroundWrites run. Every scheduled op ends as
// exactly one of completed, errored or unfinished.
type writerResult struct {
	Scheduled, Completed, Errors, Unfinished uint64
	P99                                      time.Duration // from each op's slot to its ack
}

// backgroundWrites is the scenarios' background load. Each session issues
// Puts of fresh keys at a fixed pace, staggered against the others. An op
// is timed from its slot, not from when the session got to it (PutAt), so
// a stalled cluster shows as latency rather than as fewer ops.
func backgroundWrites(cfg writerConfig) (writerResult, error) {
	if len(cfg.Addrs) == 0 || cfg.Sessions <= 0 || cfg.Rate <= 0 {
		return writerResult{}, errors.New("harness: writer needs addresses, sessions and a rate")
	}
	sessions := make([]*client.Client, 0, cfg.Sessions)
	defer func() {
		for _, s := range sessions {
			_ = s.Close()
		}
	}()
	for i := 0; i < cfg.Sessions; i++ {
		// Rotate the bootstrap order so the pins spread across the
		// cluster instead of piling onto Addrs[0].
		rot := append(append([]string(nil), cfg.Addrs[i%len(cfg.Addrs):]...), cfg.Addrs[:i%len(cfg.Addrs)]...)
		s, err := client.Dial(rot...)
		if err != nil {
			return writerResult{}, fmt.Errorf("harness: writer session %d: %w", i, err)
		}
		sessions = append(sessions, s)
	}

	value := strings.Repeat("w", 128)
	interval := time.Duration(float64(cfg.Sessions) / cfg.Rate * float64(time.Second))
	var res writerResult
	var completed, errs atomic.Uint64
	var stopped atomic.Bool
	lats := make([][]time.Duration, len(sessions))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range sessions {
		first := interval * time.Duration(i) / time.Duration(len(sessions))
		n := 0
		if first < cfg.Duration {
			n = int((cfg.Duration-first-1)/interval) + 1
		}
		res.Scheduled += uint64(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n && !stopped.Load(); j++ {
				slot := start.Add(first + time.Duration(j)*interval)
				time.Sleep(time.Until(slot))
				err := s.PutAt(slot, fmt.Sprintf("bg:%02d:%05d", i, j), value)
				switch {
				case err == nil:
					completed.Add(1)
					lats[i] = append(lats[i], time.Since(slot))
				case !errors.Is(err, client.ErrClosed):
					// ErrClosed is the drain cutoff: the op never got an
					// answer, so it stays unfinished.
					errs.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(start.Add(cfg.Duration + cfg.DrainTimeout))):
		stopped.Store(true)
		for _, s := range sessions {
			_ = s.Close()
		}
		<-done
	}

	res.Completed, res.Errors = completed.Load(), errs.Load()
	res.Unfinished = res.Scheduled - res.Completed - res.Errors
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		res.P99 = all[len(all)*99/100]
	}
	return res, nil
}
