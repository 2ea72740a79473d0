package daemon

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newtop"
	"newtop/internal/clientproto"
	"newtop/internal/shard"
)

// startShardedCluster launches n daemons in sharded mode with the given
// layout, and waits until every daemon can serve (meta caught up, map
// initialized, every peer's client address published).
func startShardedCluster(t *testing.T, n int, assigns []shard.Assign) map[newtop.ProcessID]*Daemon {
	t.Helper()
	meta := make([]newtop.ProcessID, n)
	for i := range meta {
		meta[i] = newtop.ProcessID(i + 1)
	}
	_, ds := startCluster(t, n, func(id newtop.ProcessID, cfg *Config) {
		cfg.Shard = &ShardConfig{Meta: meta, Initial: assigns}
	})
	waitFor(t, 15*time.Second, "sharded fleet ready", func() bool {
		for _, d := range ds {
			if !d.ShardsReady() {
				return false
			}
			for _, p := range meta {
				if _, ok := d.ShardMap().Addr(p); !ok {
					return false
				}
			}
		}
		return true
	})
	return ds
}

// shardDo runs one request against the fleet the way a routing client
// would: follow NOT_SERVING redirects to a daemon hosting the key's
// group, honor RETRY pauses, stop on any terminal answer.
func shardDo(t *testing.T, ds map[newtop.ProcessID]*Daemon, req clientproto.Request) clientproto.Response {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	id := newtop.ProcessID(1)
	for {
		resp := ds[id].serveRequest(&req)
		switch resp.Status {
		case clientproto.StRetry:
			if time.Now().After(deadline) {
				t.Fatalf("%v %q: still retrying at deadline (%s)", req.Op, req.Key, resp.Reason)
			}
			time.Sleep(resp.RetryAfter + time.Millisecond)
		case clientproto.StNotServing:
			// Route by group membership rather than the addr hint: the
			// in-package test has the daemons by ID.
			g := newtop.GroupID(resp.Group)
			next := id
			for did, d := range ds {
				d.mu.Lock()
				_, hosts := d.shardKVs[g]
				d.mu.Unlock()
				if hosts {
					next = did
					break
				}
			}
			if next == id {
				if time.Now().After(deadline) {
					t.Fatalf("%v %q: nobody hosts g%d", req.Op, req.Key, g)
				}
				time.Sleep(5 * time.Millisecond)
			}
			id = next
		default:
			return resp
		}
	}
}

// keyInRange finds a fresh key whose hash lands in [lo, hi).
func keyInRange(prefix string, lo, hi uint64) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if h := shard.HashKey(k); h >= lo && (hi == 0 || h < hi) {
			return k
		}
	}
}

func TestShardedServeAndRedirect(t *testing.T) {
	mid := uint64(1) << 63
	assigns := []shard.Assign{
		{Start: 0, Group: shard.FirstDataGroup, Members: []newtop.ProcessID{1, 2}},
		{Start: mid, Group: shard.FirstDataGroup + 1, Members: []newtop.ProcessID{2, 3}},
	}
	ds := startShardedCluster(t, 3, assigns)

	lowKey := keyInRange("low", 0, mid)
	highKey := keyInRange("high", mid, 0)

	// Served locally: daemon 1 hosts the low arc.
	put := clientproto.Request{Op: clientproto.OpPut, Key: lowKey, Value: "a"}
	if resp := ds[1].serveRequest(&put); resp.Status != clientproto.StOK {
		t.Fatalf("put at owner: %+v", resp)
	}
	get := clientproto.Request{Op: clientproto.OpGet, Key: lowKey}
	if resp := ds[1].serveRequest(&get); resp.Status != clientproto.StOK || !resp.Found || resp.Value != "a" {
		t.Fatalf("get at owner: %+v", resp)
	}

	// Redirected with the full shard hint: daemon 1 does not host the
	// high arc, and must say which group owns it, the owning arc, the
	// map epoch, and a member's client address.
	misroute := clientproto.Request{Op: clientproto.OpGet, Key: highKey}
	resp := ds[1].serveRequest(&misroute)
	if resp.Status != clientproto.StNotServing {
		t.Fatalf("misrouted get: %+v", resp)
	}
	if got, want := newtop.GroupID(resp.Group), shard.FirstDataGroup+1; got != want {
		t.Errorf("hint group = g%d, want g%d", got, want)
	}
	if resp.Epoch == 0 {
		t.Error("hint carries no map epoch")
	}
	if resp.RangeLo != mid || resp.RangeHi != 0 {
		t.Errorf("hint range = [%#x,%#x), want [%#x,0)", resp.RangeLo, resp.RangeHi, mid)
	}
	if resp.Addr != ds[2].ClientAddr() && resp.Addr != ds[3].ClientAddr() {
		t.Errorf("hint addr %q is not a member's client address", resp.Addr)
	}

	// The fleet as a whole serves both arcs.
	if resp := shardDo(t, ds, clientproto.Request{Op: clientproto.OpPut, Key: highKey, Value: "b"}); resp.Status != clientproto.StOK {
		t.Fatalf("fleet put: %+v", resp)
	}
	if resp := shardDo(t, ds, clientproto.Request{Op: clientproto.OpBarrierGet, Key: highKey}); !resp.Found || resp.Value != "b" {
		t.Fatalf("fleet barrier get: %+v", resp)
	}

	// Status answers from every daemon, reporting the meta group.
	st := ds[2].serveRequest(&clientproto.Request{Op: clientproto.OpStatus})
	if st.Status != clientproto.StStatus || newtop.GroupID(st.Group) != shard.MetaGroup || !st.Ready {
		t.Fatalf("status: %+v", st)
	}
}

func TestShardedMoveRangeUnderWrites(t *testing.T) {
	assigns := []shard.Assign{
		{Start: 0, Group: shard.FirstDataGroup, Members: []newtop.ProcessID{1, 2}},
	}
	ds := startShardedCluster(t, 3, assigns)
	mid := uint64(1) << 63

	// Seed keys on both sides of the future split.
	type pair struct{ k, v string }
	var seeded []pair
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("seed%d", i)
		v := fmt.Sprintf("val%d", i)
		if resp := shardDo(t, ds, clientproto.Request{Op: clientproto.OpPut, Key: k, Value: v}); resp.Status != clientproto.StOK {
			t.Fatalf("seed put %s: %+v", k, resp)
		}
		seeded = append(seeded, pair{k, v})
	}

	// A writer hammers one key inside the moving range for the whole
	// move; every OK-acked version must survive the migration.
	hot := keyInRange("hot", mid, 0)
	var lastAcked atomic.Int64
	lastAcked.Store(-1)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := clientproto.Request{Op: clientproto.OpPut, Key: hot, Value: strconv.Itoa(i)}
			deadline := time.Now().Add(10 * time.Second)
			id := newtop.ProcessID(1)
		attempt:
			for {
				resp := ds[id].serveRequest(&req)
				switch resp.Status {
				case clientproto.StOK:
					lastAcked.Store(int64(i))
					break attempt
				case clientproto.StUnknown:
					break attempt // ambiguous: may or may not have applied
				case clientproto.StRetry:
					time.Sleep(resp.RetryAfter + time.Millisecond)
				case clientproto.StNotServing:
					for did, d := range ds {
						d.mu.Lock()
						_, hosts := d.shardKVs[newtop.GroupID(resp.Group)]
						d.mu.Unlock()
						if hosts {
							id = did
							break
						}
					}
					time.Sleep(time.Millisecond)
				default:
					break attempt
				}
				if time.Now().After(deadline) {
					break attempt
				}
			}
		}
	}()

	time.Sleep(50 * time.Millisecond) // let some pre-move writes land
	src := shard.FirstDataGroup
	target, err := ds[1].MoveRange(mid, 0, []newtop.ProcessID{1, 3})
	if err != nil {
		t.Fatalf("MoveRange: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // and some post-move writes
	close(stop)
	<-writerDone

	// The map re-routed the range on every daemon.
	for id, d := range ds {
		waitFor(t, 10*time.Second, fmt.Sprintf("P%d map converges", id), func() bool {
			r, _, ok := d.ShardMap().Lookup(mid)
			return ok && r.Group == target
		})
	}
	// Daemon 3 (never a member of the source group) now hosts the range.
	ds[3].mu.Lock()
	_, hosts := ds[3].shardKVs[target]
	ds[3].mu.Unlock()
	if !hosts {
		t.Fatal("invited member never attached the target group")
	}

	// Zero acked-write loss: every seeded key reads back, from whichever
	// group owns it now.
	for _, p := range seeded {
		resp := shardDo(t, ds, clientproto.Request{Op: clientproto.OpBarrierGet, Key: p.k})
		if !resp.Found || resp.Value != p.v {
			t.Fatalf("seeded key %s lost across the move: %+v", p.k, resp)
		}
	}
	// The hot key's surviving version is at least the last OK-acked one
	// (UNKNOWN writes may legitimately have applied on top).
	resp := shardDo(t, ds, clientproto.Request{Op: clientproto.OpBarrierGet, Key: hot})
	if !resp.Found {
		t.Fatalf("hot key lost across the move (last acked %d)", lastAcked.Load())
	}
	got, err := strconv.Atoi(resp.Value)
	if err != nil || int64(got) < lastAcked.Load() {
		t.Fatalf("hot key went backwards: read %q, last acked %d", resp.Value, lastAcked.Load())
	}
	// Writes into the moved range ack through the new group...
	k := keyInRange("post", mid, 0)
	if resp := shardDo(t, ds, clientproto.Request{Op: clientproto.OpPut, Key: k, Value: "fresh"}); resp.Status != clientproto.StOK {
		t.Fatalf("post-move put: %+v", resp)
	}
	// ...and the source purged the moved keys but kept serving the rest.
	waitFor(t, 10*time.Second, "source purge applies", func() bool {
		ds[2].mu.Lock()
		kv := ds[2].shardKVs[src]
		ds[2].mu.Unlock()
		if kv == nil {
			return false
		}
		for _, p := range seeded {
			if shard.HashKey(p.k) >= mid {
				if _, ok := kv.Get(p.k); ok {
					return false
				}
			}
		}
		return true
	})
	// A stale-routed write straight into the source group is refused,
	// not acked: the fence outlives the move.
	ds[2].mu.Lock()
	srcRep, srcKV := ds[2].reps[src], ds[2].shardKVs[src]
	ds[2].mu.Unlock()
	if srcRep == nil || srcKV == nil {
		t.Fatal("source group gone from daemon 2")
	}
	stale := ds[2].serveWrite(placement{rep: srcRep, kv: srcKV, g: src, h: shard.HashKey(hot)}, hot, "put "+hot+" stale")
	if stale.Status == clientproto.StOK {
		t.Fatalf("stale-routed write into the moved range was acked OK")
	}
	if !strings.Contains(stale.Reason+stale.Err, "moving") && stale.Status != clientproto.StUnknown {
		t.Fatalf("stale-routed write: %+v", stale)
	}
}
