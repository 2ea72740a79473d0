package newtop_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"newtop"
)

func startTrio(t *testing.T, net *newtop.Network) []*newtop.Process {
	t.Helper()
	var procs []*newtop.Process
	for i := 1; i <= 3; i++ {
		p, err := newtop.Start(newtop.Config{
			Self:    newtop.ProcessID(i),
			Network: net,
			Omega:   10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.Close()
		}
		net.Close()
	})
	return procs
}

func TestPublicAPITotalOrder(t *testing.T) {
	net := newtop.NewNetwork(newtop.WithSeed(1))
	procs := startTrio(t, net)
	members := []newtop.ProcessID{1, 2, 3}
	for _, p := range procs {
		if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range procs {
		if err := p.Submit(1, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var ref []string
	for _, p := range procs {
		var got []string
		for k := 0; k < 3; k++ {
			select {
			case d := <-p.Deliveries():
				got = append(got, string(d.Payload))
			case <-time.After(10 * time.Second):
				t.Fatalf("%v: timed out", p.Self())
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("order diverges: %v vs %v", got, ref)
			}
		}
	}
}

// TestPublicAPIRingDissemination drives the ring payload path through the
// full node runtime: five processes with a ring threshold, payloads above
// it riding the view ring (relay hop by hop) and below it going direct.
// Every member must deliver every payload bit-intact in the same total
// order, including payloads submitted after a member leaves and the ring
// re-forms over the shrunken view.
func TestPublicAPIRingDissemination(t *testing.T) {
	net := newtop.NewNetwork(newtop.WithSeed(11))
	members := []newtop.ProcessID{1, 2, 3, 4, 5}
	var procs []*newtop.Process
	for _, id := range members {
		p, err := newtop.Start(newtop.Config{
			Self: id, Network: net, Omega: 10 * time.Millisecond,
			RingThreshold: 2048,
		})
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.Close()
		}
		net.Close()
	})
	for _, p := range procs {
		if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
			t.Fatal(err)
		}
	}

	// Large payloads ride the ring, the small one goes direct; both must
	// interleave into one agreed order.
	mk := func(tag byte, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(int(tag) + i*13)
		}
		return b
	}
	payloads := [][]byte{mk('a', 16<<10), mk('b', 100), mk('c', 48<<10), mk('d', 4<<10)}
	for i, pl := range payloads {
		if err := procs[i%2].Submit(1, pl); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(p *newtop.Process, n int) [][]byte {
		var got [][]byte
		for len(got) < n {
			select {
			case d := <-p.Deliveries():
				got = append(got, d.Payload)
			case <-time.After(15 * time.Second):
				t.Fatalf("%v: delivered %d/%d before timeout", p.Self(), len(got), n)
			}
		}
		return got
	}
	ref := collect(procs[0], len(payloads))
	for _, p := range procs[1:] {
		got := collect(p, len(payloads))
		for k := range got {
			if !bytes.Equal(got[k], ref[k]) {
				t.Fatalf("%v: delivery %d diverges (%d vs %d bytes)", p.Self(), k, len(got[k]), len(ref[k]))
			}
		}
	}
	for _, pl := range payloads {
		found := false
		for _, d := range ref {
			if bytes.Equal(d, pl) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("a %d-byte payload was lost or corrupted", len(pl))
		}
	}

	// P5 leaves: the ring re-forms over {1..4}; a fresh large payload must
	// still disseminate to every survivor.
	if err := procs[4].Close(); err != nil {
		t.Fatal(err)
	}
	procs = procs[:4]
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("view never shrank after P5 left")
		}
		v, err := procs[0].View(1)
		if err == nil && len(v.Members) == 4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	late := mk('e', 32<<10)
	if err := procs[0].Submit(1, late); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		got := collect(p, 1)
		if !bytes.Equal(got[0], late) {
			t.Fatalf("%v: post-shrink ring payload corrupted (%d bytes)", p.Self(), len(got[0]))
		}
	}
}

func TestPublicAPIConfigValidation(t *testing.T) {
	if _, err := newtop.Start(newtop.Config{Self: 0, Network: newtop.NewNetwork()}); err == nil {
		t.Error("zero Self accepted")
	}
	if _, err := newtop.Start(newtop.Config{Self: 1}); err == nil {
		t.Error("missing transport accepted")
	}
	if _, err := newtop.Start(newtop.Config{Self: 1, Network: newtop.NewNetwork(), ListenAddr: "x"}); err == nil {
		t.Error("double transport accepted")
	}
}

func TestPublicAPIOverTCP(t *testing.T) {
	// Three processes over real TCP on loopback, with fixed ports so the
	// address book is known up front (as in a real deployment).
	addrs := map[newtop.ProcessID]string{
		1: "127.0.0.1:42311",
		2: "127.0.0.1:42312",
		3: "127.0.0.1:42313",
	}
	var procs []*newtop.Process
	for id, addr := range addrs {
		peers := make(map[newtop.ProcessID]string)
		for pid, a := range addrs {
			if pid != id {
				peers[pid] = a
			}
		}
		p, err := newtop.Start(newtop.Config{
			Self: id, ListenAddr: addr, Peers: peers, Omega: 10 * time.Millisecond,
		})
		if err != nil {
			for _, q := range procs {
				_ = q.Close()
			}
			t.Skipf("fixed port unavailable: %v", err)
		}
		procs = append(procs, p)
	}
	defer func() {
		for _, p := range procs {
			_ = p.Close()
		}
	}()

	members := []newtop.ProcessID{1, 2, 3}
	for _, p := range procs {
		if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range procs {
		if err := p.Submit(1, []byte(fmt.Sprintf("from-%v", p.Self()))); err != nil {
			t.Fatal(err)
		}
	}
	var ref []string
	for _, p := range procs {
		var got []string
		for k := 0; k < 3; k++ {
			select {
			case d := <-p.Deliveries():
				got = append(got, string(d.Payload))
			case <-time.After(15 * time.Second):
				t.Fatalf("%v: TCP delivery timed out", p.Self())
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("TCP order diverges: %v vs %v", got, ref)
			}
		}
	}
}

// startOverTCP starts n processes 1..n over loopback TCP, each built from
// base with its own ephemeral listen address and the full peer book. The
// processes close at cleanup.
func startOverTCP(t *testing.T, n int, base newtop.Config) []*newtop.Process {
	t.Helper()
	addrs := make(map[newtop.ProcessID]string)
	for id := newtop.ProcessID(1); id <= newtop.ProcessID(n); id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = ln.Addr().String()
		_ = ln.Close()
	}
	var procs []*newtop.Process
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.Close()
		}
	})
	for id := newtop.ProcessID(1); id <= newtop.ProcessID(n); id++ {
		cfg := base
		cfg.Self, cfg.ListenAddr = id, addrs[id]
		cfg.Peers = make(map[newtop.ProcessID]string)
		for pid, a := range addrs {
			if pid != id {
				cfg.Peers[pid] = a
			}
		}
		p, err := newtop.Start(cfg)
		if err != nil {
			t.Skipf("reserved port taken: %v", err)
		}
		procs = append(procs, p)
	}
	return procs
}

// TestPublicAPIPeerDownOverTCP closes one of three processes on loopback
// TCP: its sockets close and its port refuses, so the survivors suspect
// it from the transport's peer-down hint instead of waiting out Ω of
// silence, and exclude it.
func TestPublicAPIPeerDownOverTCP(t *testing.T) {
	procs := startOverTCP(t, 3, newtop.Config{Omega: 50 * time.Millisecond})
	members := []newtop.ProcessID{1, 2, 3}
	for _, p := range procs {
		if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range procs {
		if err := p.Submit(1, []byte(fmt.Sprintf("from-%v", p.Self()))); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range procs {
		for k := 0; k < 3; k++ {
			select {
			case <-p.Deliveries():
			case <-time.After(15 * time.Second):
				t.Fatalf("%v: TCP delivery timed out", p.Self())
			}
		}
	}

	if err := procs[2].Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs[:2] {
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, err := p.View(1)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Contains(3) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never excluded the closed P3: %v", p.Self(), v)
			}
			time.Sleep(time.Millisecond)
		}
		snap := p.Metrics()
		if n := snap.Counters[`newtop_suspicions_total{source="peer_down"}`]; n == 0 {
			t.Errorf("%v: no peer_down suspicion", p.Self())
		}
		if n := snap.Counters[`newtop_suspicions_total{source="silence"}`]; n != 0 {
			t.Errorf("%v: %d silence suspicions, want 0", p.Self(), n)
		}
		if n := snap.Counters["newtop_tcpnet_peer_down_total"]; n == 0 {
			t.Errorf("%v: tcpnet queued no peer-down hint", p.Self())
		}
	}
}

// TestPublicAPIRingExclusionOverTCP closes one of five ring-disseminating
// processes once every payload is stable. Exclusion must take a round trip
// after the peer-down hint, not the survivors' time-silence (ω = 200 ms),
// and no survivor may re-send a payload that every member already holds.
func TestPublicAPIRingExclusionOverTCP(t *testing.T) {
	const omega = 200 * time.Millisecond
	procs := startOverTCP(t, 5, newtop.Config{Omega: omega, RingThreshold: 4 << 10})
	members := []newtop.ProcessID{1, 2, 3, 4, 5}
	for _, p := range procs {
		if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
			t.Fatal(err)
		}
	}
	const sends = 40
	payload := bytes.Repeat([]byte{0xAB}, 16<<10)
	for i := 0; i < sends; i++ {
		if err := procs[i%4].Submit(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range procs {
		for k := 0; k < sends; k++ {
			select {
			case <-p.Deliveries():
			case <-time.After(15 * time.Second):
				t.Fatalf("%v: ring delivery %d timed out", p.Self(), k)
			}
		}
	}
	// Stability follows delivery within one time-silence round: each
	// member's next null carries an LDN above every payload.
	time.Sleep(3 * omega)

	closed := time.Now()
	if err := procs[4].Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs[:4] {
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, err := p.View(1)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Contains(5) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never excluded the closed P5: %v", p.Self(), v)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if took := time.Since(closed); took > 50*time.Millisecond {
			t.Errorf("%v installed the view without P5 %v after the close, want ≤ 50ms (ω = %v)", p.Self(), took, omega)
		}
	}
	for _, p := range procs[:4] {
		snap := p.Metrics()
		if n := snap.Counters["newtop_ring_redisseminations_total"]; n != 0 {
			t.Errorf("%v re-sent %d stable payloads on the view change, want 0", p.Self(), n)
		}
		if h := snap.Histograms["newtop_engine_view_install_wait_ns"]; h.Count != 1 {
			t.Errorf("%v: install-wait histogram holds %d samples, want 1", p.Self(), h.Count)
		}
	}
}

// TestPublicAPIReplication walks the whole replication story through the
// public API: replicate a KV over a group, read-your-writes, then bring a
// fourth process in by forming a successor group and watch it catch up.
func TestPublicAPIReplication(t *testing.T) {
	net := newtop.NewNetwork(newtop.WithSeed(3))
	procs := startTrio(t, net)
	members := []newtop.ProcessID{1, 2, 3}

	kvs := make([]*newtop.KV, 3)
	reps := make([]*newtop.Replica, 3)
	for i, p := range procs {
		kvs[i] = newtop.NewKV()
		rep, err := newtop.Replicate(p, 1, kvs[i])
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	for _, p := range procs {
		if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 9; i++ {
		if err := reps[i%3].Propose([]byte(fmt.Sprintf("put k%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := reps[1].Read(func(newtop.StateMachine) {
		if v, ok := kvs[1].Get("k7"); !ok || v != "v7" {
			t.Errorf("read-your-writes: k7 = %q %v", v, ok)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if err := rep.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if d0, d1 := reps[0].Digest(), reps[1].Digest(); d0 != d1 {
		t.Fatalf("replicas diverge: %016x vs %016x", d0, d1)
	}

	// P4 joins by forming g2 = {1,2,3,4} and catches up via state transfer.
	p4, err := newtop.Start(newtop.Config{Self: 4, Network: net, Omega: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p4.Close() }()
	// The chunk size is a streamer-side knob: set it on the incumbents
	// (tiny here, to force a genuinely chunked stream).
	for i, p := range procs {
		if _, err := newtop.Replicate(p, 2, kvs[i], newtop.WithSnapshotChunkSize(16)); err != nil {
			t.Fatal(err)
		}
	}
	kv4 := newtop.NewKV()
	rep4, err := newtop.Replicate(p4, 2, kv4, newtop.CatchUp())
	if err != nil {
		t.Fatal(err)
	}
	if err := p4.CreateGroup(2, newtop.Symmetric, []newtop.ProcessID{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rep4.Ready():
	case <-time.After(30 * time.Second):
		t.Fatalf("catch-up stalled: %+v", rep4.Stats())
	}
	if v, ok := kv4.Get("k0"); !ok || v != "v0" {
		t.Fatalf("transferred state missing: k0 = %q %v", v, ok)
	}
	if st := rep4.Stats(); st.SnapshotsIn != 1 || st.ChunksIn < 2 {
		t.Fatalf("expected a chunked snapshot install: %+v", st)
	}
	// The transfer event surfaces on the public Events channel.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-p4.Events():
			if ev.Kind == newtop.EventStateTransferred {
				if ev.Group != 2 {
					t.Fatalf("transfer event for wrong group: %+v", ev)
				}
				return
			}
		case <-deadline:
			t.Fatal("EventStateTransferred never surfaced")
		}
	}
}

// TestPublicAPIReconcile walks the whole detect→repair loop through the
// public API: a replicated group partitions and diverges, the heal is
// detected by probes (EventHealDetected), the survivors form a merged
// successor group and Reconcile converges every replica to the identical
// merged state (EventReconciled).
func TestPublicAPIReconcile(t *testing.T) {
	net := newtop.NewNetwork(newtop.WithSeed(11))
	members := []newtop.ProcessID{1, 2, 3, 4}
	var procs []*newtop.Process
	for _, id := range members {
		p, err := newtop.Start(newtop.Config{
			Self: id, Network: net,
			Omega:             10 * time.Millisecond,
			HealProbeInterval: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.Close()
		}
		net.Close()
	})
	// Events channels must drain or the heal/reconcile signals back up.
	healCh := make(chan newtop.ProcessID, 64)
	reconCh := make(chan newtop.ProcessID, 64)
	for _, p := range procs {
		p := p
		go func() {
			for ev := range p.Events() {
				switch ev.Kind {
				case newtop.EventHealDetected:
					healCh <- p.Self()
				case newtop.EventReconciled:
					if ev.Group == 2 {
						reconCh <- p.Self()
					}
				}
			}
		}()
	}

	kvs := make(map[newtop.ProcessID]*newtop.KV)
	reps := make(map[newtop.ProcessID]*newtop.Replica)
	for i, p := range procs {
		kvs[p.Self()] = newtop.NewKV()
		rep, err := newtop.Replicate(p, 1, kvs[p.Self()])
		if err != nil {
			t.Fatal(err)
		}
		reps[p.Self()] = rep
		_ = i
	}
	for _, p := range procs {
		if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if err := reps[members[i%4]].Propose([]byte(fmt.Sprintf("put base:%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range members {
		if err := reps[id].Barrier(); err != nil {
			t.Fatal(err)
		}
	}

	// Partition {1,2} | {3,4}; both sides keep writing, then quiesce.
	net.Partition([]newtop.ProcessID{1, 2}, []newtop.ProcessID{3, 4})
	waitView := func(p *newtop.Process, excluded ...newtop.ProcessID) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			v, err := p.View(1)
			ok := err == nil
			for _, e := range excluded {
				if err == nil && v.Contains(e) {
					ok = false
				}
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("P%d: view never excluded %v (last %v)", p.Self(), excluded, v)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitView(procs[0], 3, 4)
	waitView(procs[2], 1, 2)
	if err := reps[1].Propose([]byte("put conflict A")); err != nil {
		t.Fatal(err)
	}
	if err := reps[1].Propose([]byte("put only-a yes")); err != nil {
		t.Fatal(err)
	}
	if err := reps[3].Propose([]byte("put only-b yes")); err != nil {
		t.Fatal(err)
	}
	if err := reps[3].Propose([]byte("put conflict B")); err != nil {
		t.Fatal(err)
	}
	for _, id := range members {
		if err := reps[id].Barrier(); err != nil { // quiesce g1: the cut-over discipline
			t.Fatal(err)
		}
	}
	if dA, dB := reps[1].Digest(), reps[3].Digest(); dA == dB {
		t.Fatal("sides did not diverge")
	}

	// Heal: probes from both sides cross the restored links.
	net.Heal()
	select {
	case <-healCh:
	case <-time.After(30 * time.Second):
		t.Fatal("EventHealDetected never fired after the heal")
	}

	// Merged successor group g2 over all four, reconciled under LWW.
	// Side tags: the old subgroup's lowest member.
	recs := make(map[newtop.ProcessID]*newtop.Replica)
	for _, p := range procs {
		side := uint64(1)
		if p.Self() >= 3 {
			side = 3
		}
		rec, err := newtop.Reconcile(p, 2, kvs[p.Self()], newtop.LastWriterWins(), members,
			newtop.WithPartitionSide(side))
		if err != nil {
			t.Fatal(err)
		}
		recs[p.Self()] = rec
	}
	if err := procs[0].CreateGroup(2, newtop.Symmetric, members); err != nil {
		t.Fatal(err)
	}
	for _, id := range members {
		select {
		case <-recs[id].Ready():
		case <-time.After(60 * time.Second):
			t.Fatalf("P%d reconciliation stalled: %+v", id, recs[id].Stats())
		}
	}
	reconciled := map[newtop.ProcessID]bool{}
	for len(reconciled) < 4 {
		select {
		case id := <-reconCh:
			reconciled[id] = true
		case <-time.After(30 * time.Second):
			t.Fatalf("EventReconciled missing: got %v", reconciled)
		}
	}

	// Every replica converged to the same merged state: both sides'
	// writes survive, the conflict resolved identically everywhere.
	d0 := recs[1].Digest()
	for _, id := range members[1:] {
		if d := recs[id].Digest(); d != d0 {
			t.Fatalf("post-merge digest of P%d = %016x, want %016x", id, d, d0)
		}
	}
	for _, id := range members {
		kv := kvs[id]
		if v, ok := kv.Get("only-a"); !ok || v != "yes" {
			t.Fatalf("P%d lost side A's write: %q %v", id, v, ok)
		}
		if v, ok := kv.Get("only-b"); !ok || v != "yes" {
			t.Fatalf("P%d lost side B's write: %q %v", id, v, ok)
		}
		if v, ok := kv.Get("conflict"); !ok || (v != "A" && v != "B") {
			t.Fatalf("P%d conflict = %q %v", id, v, ok)
		}
		if v, _ := kv.Get("conflict"); v != kvsGet(kvs[1], "conflict") {
			t.Fatalf("P%d conflict resolution differs", id)
		}
	}
	// Writes keep flowing in the merged group.
	if err := recs[2].Propose([]byte("put after-merge yes")); err != nil {
		t.Fatal(err)
	}
	if err := recs[2].Barrier(); err != nil {
		t.Fatal(err)
	}
	if v, _ := kvs[2].Get("after-merge"); v != "yes" {
		t.Fatal("post-merge write lost")
	}
}

func kvsGet(kv *newtop.KV, k string) string {
	v, _ := kv.Get(k)
	return v
}

func TestPublicAPIPartitionControls(t *testing.T) {
	net := newtop.NewNetwork(newtop.WithSeed(7), newtop.WithLatency(time.Millisecond, 2*time.Millisecond))
	procs := startTrio(t, net)
	_ = procs
	if !net.Connected(1, 2) {
		t.Error("fresh network should be connected")
	}
	net.Disconnect(1, 2)
	if net.Connected(1, 2) {
		t.Error("Disconnect had no effect")
	}
	net.Reconnect(1, 2)
	if !net.Connected(1, 2) {
		t.Error("Reconnect had no effect")
	}
	net.Partition([]newtop.ProcessID{1}, []newtop.ProcessID{2, 3})
	if net.Connected(1, 3) || !net.Connected(2, 3) {
		t.Error("Partition wrong")
	}
	net.Heal()
	if !net.Connected(1, 3) {
		t.Error("Heal wrong")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	net := newtop.NewNetwork()
	procs := startTrio(t, net)
	p := procs[0]
	if err := p.Submit(42, []byte("x")); !errors.Is(err, newtop.ErrUnknownGroup) {
		t.Errorf("err = %v, want ErrUnknownGroup", err)
	}
	members := []newtop.ProcessID{1, 2, 3}
	if err := p.BootstrapGroup(1, newtop.Symmetric, members); err != nil {
		t.Fatal(err)
	}
	if err := p.BootstrapGroup(1, newtop.Symmetric, members); !errors.Is(err, newtop.ErrGroupExists) {
		t.Errorf("err = %v, want ErrGroupExists", err)
	}
	if err := p.LeaveGroup(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(1, []byte("x")); !errors.Is(err, newtop.ErrLeftGroup) {
		t.Errorf("err = %v, want ErrLeftGroup", err)
	}
}
