// Sharded mode: the daemon partitions the keyspace by hash across many
// Newtop data groups instead of replicating one store in one lineage of
// groups. Which arc of the hash ring belongs to which group is itself
// replicated state — a shard.Map driven through a small meta-group's
// total order — so every daemon converges on the same routing table
// without any coordination channel beside the protocol itself.
//
// Rebalancing follows the paper's group-lifecycle rule (§5.3): processes
// never rejoin an old group; movement means forming a NEW group and
// transferring state into it. MoveRange is that driver: fence the range
// in the source group's order, cut a range snapshot at the fence, seed a
// fresh group with it, and commit the routing flip in the meta order.
// The fence is the whole correctness story — an acked write is applied
// before the fence, therefore inside the snapshot, therefore owned by
// the new group; a write ordered after the fence is rejected at apply on
// every member and acked UNKNOWN at worst, never OK-then-lost.
package daemon

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"newtop"
	"newtop/internal/clientproto"
	"newtop/internal/rsm"
	"newtop/internal/shard"
)

// ShardConfig configures sharded mode. Every daemon in the fleet must be
// started with an identical ShardConfig: bootstrap is deterministic (each
// daemon bootstraps exactly the groups it belongs to), and the initial
// layout is proposed idempotently by everyone — first in the meta order
// wins, the rest are no-ops.
type ShardConfig struct {
	// Meta lists the meta-group members (default: every daemon named by
	// Initial's assigns plus Self).
	Meta []newtop.ProcessID
	// Initial is the bootstrap shard layout: hash-ring arcs and the
	// members of each arc's owning group. Use shard.UniformAssigns for
	// an even split.
	Initial []shard.Assign
}

// startShardGroups bootstraps the meta group (replicating the shard map)
// and every initial data group this daemon is a member of.
func (d *Daemon) startShardGroups() error {
	sc := d.cfg.Shard
	if len(sc.Initial) == 0 {
		return errors.New("daemon: sharded mode needs at least one initial assign")
	}
	d.smap = shard.NewMap()

	meta := sc.Meta
	if len(meta) == 0 {
		set := map[newtop.ProcessID]bool{d.cfg.Self: true}
		for _, a := range sc.Initial {
			for _, m := range a.Members {
				set[m] = true
			}
		}
		for p := range set {
			meta = append(meta, p)
		}
	}
	meta = sortedProcs(meta)

	d.mu.Lock()
	rep, err := newtop.Replicate(d.proc, shard.MetaGroup, d.smap)
	if err == nil {
		d.reps[shard.MetaGroup] = rep
	}
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err := d.proc.BootstrapGroup(shard.MetaGroup, d.cfg.Mode, meta); err != nil {
		return err
	}

	hosted := 0
	for _, a := range sc.Initial {
		if !containsProc(a.Members, d.cfg.Self) {
			continue
		}
		kv := newtop.NewKV()
		d.mu.Lock()
		r, rerr := newtop.Replicate(d.proc, a.Group, kv)
		if rerr == nil {
			d.reps[a.Group] = r
			d.shardKVs[a.Group] = kv
		}
		d.mu.Unlock()
		if rerr != nil {
			return rerr
		}
		if err := d.proc.BootstrapGroup(a.Group, d.cfg.Mode, sortedProcs(a.Members)); err != nil {
			return err
		}
		hosted++
	}
	d.logf("P%d up (sharded); meta group g%d members %v, hosting %d of %d shard groups",
		d.cfg.Self, shard.MetaGroup, meta, hosted, len(sc.Initial))
	return nil
}

// publishShardIdentity proposes the initial layout and this daemon's
// client address into the meta order, retrying until both are applied
// locally. Every daemon proposes the same init; the first one ordered
// wins and the rest are deterministic no-ops, so no daemon is special.
func (d *Daemon) publishShardIdentity() {
	defer d.wg.Done()
	addr := d.ClientAddr()
	d.mu.Lock()
	rep := d.reps[shard.MetaGroup]
	d.mu.Unlock()
	if rep == nil {
		return
	}
	init := shard.CmdInit(d.cfg.Shard.Initial)
	for {
		err := rep.Propose(init)
		if err == nil && addr != "" {
			err = rep.Propose(shard.CmdAddr(d.cfg.Self, addr))
		}
		if err == nil {
			err = rep.Read(func(newtop.StateMachine) {})
		}
		if err == nil && d.smap.Initialized() {
			if a, ok := d.smap.Addr(d.cfg.Self); addr == "" || (ok && a == addr) {
				return
			}
		}
		select {
		case <-d.done:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// attachShardInvite handles a formation invite for a shard-space group:
// we were named a member of a data group someone is forming (the target
// of a MoveRange), so attach a catch-up replica over a fresh store — the
// range's keys arrive through the chunked state transfer inside the new
// group's total order. The lineage cut-over machinery does not apply:
// shard groups supersede nothing.
func (d *Daemon) attachShardInvite(g newtop.GroupID) {
	if !shard.IsDataGroup(g) {
		d.logf("ignoring invite for meta-space group g%d", g)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if _, ok := d.reps[g]; ok {
		return // the move driver already attached the incumbent replica
	}
	kv := newtop.NewKV()
	rep, err := newtop.Replicate(d.proc, g, kv, newtop.CatchUp())
	if err != nil {
		d.logf("replicate shard group g%d: %v", g, err)
		return
	}
	d.reps[g] = rep
	d.shardKVs[g] = kv
	d.logf("joined shard group g%d; catching up", g)
}

// ShardMap exposes the replicated shard map (nil unless sharded mode).
func (d *Daemon) ShardMap() *shard.Map { return d.smap }

// ShardsReady reports whether this daemon can serve sharded traffic: the
// meta replica is caught up, the map is initialized, and every hosted
// data replica is caught up.
func (d *Daemon) ShardsReady() bool {
	if d.smap == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	meta := d.reps[shard.MetaGroup]
	if meta == nil || !meta.CaughtUp() || !d.smap.Initialized() {
		return false
	}
	for g := range d.shardKVs {
		if rep := d.reps[g]; rep == nil || !rep.CaughtUp() {
			return false
		}
	}
	return true
}

// routeShard is the sharded route step: route by key hash through the
// replicated map, serve locally when this daemon hosts the owning group,
// redirect with a shard hint (map epoch + owning arc + a member's client
// address) when it does not. Status is served from the meta replica. The
// lineage route's cut-over write hold does not apply here — shard-group
// formation supersedes nothing; mid-move safety comes from the fence
// (see serveWrite).
func (d *Daemon) routeShard(req *clientproto.Request) (placement, clientproto.Response, bool) {
	if req.Op == clientproto.OpStatus {
		d.mu.Lock()
		meta := d.reps[shard.MetaGroup]
		d.mu.Unlock()
		if meta == nil {
			return placement{}, clientproto.Response{Status: clientproto.StNotServing, Group: uint64(shard.MetaGroup)}, false
		}
		return placement{rep: meta, g: shard.MetaGroup}, clientproto.Response{}, true
	}
	h := shard.HashKey(req.Key)
	route, epoch, ok := d.smap.Lookup(h)
	if !ok {
		return placement{}, clientproto.Response{Status: clientproto.StRetry,
			RetryAfter: 50 * time.Millisecond, Reason: "shard map not initialized"}, false
	}
	d.mu.Lock()
	rep := d.reps[route.Group]
	kv := d.shardKVs[route.Group]
	d.mu.Unlock()
	if rep == nil || kv == nil {
		return placement{}, clientproto.Response{
			Status:  clientproto.StNotServing,
			Group:   uint64(route.Group),
			Addr:    d.smap.AddrHint(route.Group, h, d.cfg.Self),
			Epoch:   epoch,
			RangeLo: route.Lo,
			RangeHi: route.Hi,
		}, false
	}
	if !rep.CaughtUp() {
		// A freshly invited member still streaming the moved range in.
		// Redirecting would just bounce among equally new members; the
		// transfer is short, so hold the client here.
		return placement{}, clientproto.Response{Status: clientproto.StRetry,
			RetryAfter: 20 * time.Millisecond, Reason: "shard catching up"}, false
	}
	return placement{rep: rep, kv: kv, g: route.Group, h: h}, clientproto.Response{}, true
}

// hostedShards sums the keys across the shard groups this daemon hosts
// and counts the groups.
func (d *Daemon) hostedShards() (keys, groups int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, kv := range d.shardKVs {
		keys += kv.Len()
	}
	return keys, len(d.shardKVs)
}

// MoveRange splits the hash range [lo, hi) (hi == 0 meaning the ring
// top) out of its current owning group into a freshly formed group of
// members, and flips the routing in the meta order. The caller daemon
// must be a member of members: the driver doubles as the new group's
// incumbent, seeding it with the snapshot cut (§5.3 — the state streamer
// is a member of the new group by construction). Returns the new group's
// ID.
//
// Sequence: meta PENDING (reserves the range, gates new writes) → source
// FENCE (closes the range's order) → snapshot cut at the fence → seed
// incumbent → dynamic formation (invited members catch up inside the new
// order) → meta COMMIT (epoch bump re-routes) → source PURGE (drops the
// moved keys; the fence stays as the permanent stale-route write-gate).
// Any failure before COMMIT aborts: meta ABORT + source UNFENCE restore
// the pre-move world exactly.
func (d *Daemon) MoveRange(lo, hi uint64, members []newtop.ProcessID) (newtop.GroupID, error) {
	if d.smap == nil {
		return 0, errors.New("daemon: not in sharded mode")
	}
	if !containsProc(members, d.cfg.Self) {
		return 0, errors.New("daemon: the move driver must be a member of the target group")
	}
	d.moveMu.Lock()
	defer d.moveMu.Unlock()

	route, _, ok := d.smap.Lookup(lo)
	if !ok {
		return 0, errors.New("daemon: shard map not initialized")
	}
	d.mu.Lock()
	metaRep := d.reps[shard.MetaGroup]
	srcRep := d.reps[route.Group]
	srcKV := d.shardKVs[route.Group]
	d.mu.Unlock()
	if metaRep == nil {
		return 0, errors.New("daemon: meta replica not attached")
	}
	if srcRep == nil || srcKV == nil {
		return 0, fmt.Errorf("daemon: source shard g%d not hosted here (drive the move from a member)", route.Group)
	}
	target := d.smap.NextDataGroup()

	// 1. Reserve the move in the meta order. First PENDING ordered wins;
	// a conflicting in-flight move leaves the map unchanged and we see
	// someone else's reservation (or none matching ours) after the ack.
	pend := shard.Pending{Lo: lo, Hi: hi, Group: target, Members: members}
	if err := metaRep.Propose(shard.CmdPending(pend)); err != nil {
		return 0, err
	}
	if err := metaRep.Read(func(newtop.StateMachine) {}); err != nil {
		return 0, err
	}
	if pm, ok := d.smap.PendingMove(); !ok || pm.Group != target || pm.Lo != lo || pm.Hi != hi {
		return 0, errors.New("daemon: move rejected (conflicting move in flight, or range does not fit one arc)")
	}

	abort := func(stage string, err error) (newtop.GroupID, error) {
		_ = srcRep.Propose(rsm.CmdUnfence(lo, hi))
		_ = metaRep.Propose(shard.CmdAbort(lo, hi, target))
		d.logf("move of [%#x,%#x) to g%d aborted at %s: %v", lo, hi, target, stage, err)
		return 0, fmt.Errorf("daemon: move aborted at %s: %w", stage, err)
	}

	// 2. Fence the range in the source order. Once the fence is applied
	// locally, every in-range write that will ever be acked is already in
	// our local state (acks require local apply, and post-fence applies
	// reject the range on every member alike).
	if err := srcRep.Propose(rsm.CmdFence(lo, hi)); err != nil {
		return abort("fence", err)
	}
	if err := srcRep.Read(func(newtop.StateMachine) {}); err != nil {
		return abort("fence ack", err)
	}

	// 3. Cut the snapshot. Read pauses applies around fn; together with
	// the fence this makes the cut exactly "every acked in-range write".
	var snap []byte
	if err := srcRep.Read(func(newtop.StateMachine) { snap = srcKV.SnapshotRange(lo, hi) }); err != nil {
		return abort("snapshot cut", err)
	}

	// 4. Seed the target group and form it. The incumbent replica is
	// authoritative from birth; invited members stream the state through
	// the chunked transfer inside the new group's own total order.
	tkv := newtop.NewKV()
	if err := tkv.Restore(snap); err != nil {
		return abort("restore", err)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, newtop.ErrClosed
	}
	trep, err := newtop.Replicate(d.proc, target, tkv)
	if err == nil {
		d.reps[target] = trep
		d.shardKVs[target] = tkv
	}
	d.mu.Unlock()
	if err != nil {
		return abort("target replicate", err)
	}
	if err := d.proc.CreateGroup(target, d.cfg.Mode, sortedProcs(members)); err != nil {
		d.dropShardReplica(target)
		return abort("formation", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !d.proc.GroupReady(target) {
		d.mu.Lock()
		_, still := d.reps[target] // formation failure deregisters it
		d.mu.Unlock()
		if !still {
			return abort("formation", errors.New("group formation failed"))
		}
		if time.Now().After(deadline) {
			d.dropShardReplica(target)
			return abort("formation", errors.New("group formation timed out"))
		}
		select {
		case <-d.done:
			return 0, newtop.ErrClosed
		case <-time.After(10 * time.Millisecond):
		}
	}

	// 5. Commit the routing flip. After this is ordered, every daemon's
	// map (as its meta replica applies it) routes the range to the new
	// group and redirects clients there.
	if err := metaRep.Propose(shard.CmdCommit(lo, hi, target)); err != nil {
		return 0, fmt.Errorf("daemon: move formed g%d but the commit could not be proposed: %w", target, err)
	}
	if err := metaRep.Read(func(newtop.StateMachine) {}); err != nil {
		return 0, fmt.Errorf("daemon: move formed g%d but the commit ack failed: %w", target, err)
	}

	// 6. Drop the moved keys from the source. The fence stays up for
	// good: a write routed here by a stale map must keep failing into a
	// retry, never be acked into a group that no longer owns the range.
	if err := srcRep.Propose(rsm.CmdPurge(lo, hi)); err == nil {
		_ = srcRep.Read(func(newtop.StateMachine) {})
	}
	d.logf("moved shard range [%#x,%#x) from g%d to new group g%d (epoch %d)",
		lo, hi, route.Group, target, d.smap.Epoch())
	return target, nil
}

// dropShardReplica detaches and closes a shard replica this daemon
// attached (the target of a move that failed to form).
func (d *Daemon) dropShardReplica(g newtop.GroupID) {
	d.mu.Lock()
	rep := d.reps[g]
	delete(d.reps, g)
	delete(d.shardKVs, g)
	d.mu.Unlock()
	if rep != nil {
		_ = rep.Close()
	}
}

func containsProc(ps []newtop.ProcessID, p newtop.ProcessID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

func sortedProcs(ps []newtop.ProcessID) []newtop.ProcessID {
	out := append([]newtop.ProcessID(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
