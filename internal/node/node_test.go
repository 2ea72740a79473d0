package node

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/transport/memnet"
	"newtop/internal/types"
	"newtop/internal/wire"
)

// newTrio starts three nodes over an in-memory network.
func newTrio(t *testing.T, mutate ...func(*core.Config)) (*memnet.Network, []*Node) {
	t.Helper()
	net := memnet.New(memnet.WithSeed(1))
	var nodes []*Node
	for i := 1; i <= 3; i++ {
		ep, err := net.Attach(types.ProcessID(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Self: types.ProcessID(i), Omega: 10 * time.Millisecond}
		for _, m := range mutate {
			m(&cfg)
		}
		nodes = append(nodes, New(cfg, ep, Options{}))
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		net.Close()
	})
	return net, nodes
}

func members(n int) []types.ProcessID {
	out := make([]types.ProcessID, n)
	for i := range out {
		out[i] = types.ProcessID(i + 1)
	}
	return out
}

func recvDelivery(t *testing.T, n *Node) Delivery {
	t.Helper()
	select {
	case d, ok := <-n.Deliveries():
		if !ok {
			t.Fatal("deliveries channel closed")
		}
		return d
	case <-time.After(10 * time.Second):
		t.Fatalf("%v: timed out waiting for delivery", n.Self())
	}
	return Delivery{}
}

func TestNodeTotalOrderOverMemnet(t *testing.T) {
	_, nodes := newTrio(t)
	for _, n := range nodes {
		if err := n.BootstrapGroup(1, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	const per = 10
	// Concurrent senders from all three nodes.
	for _, n := range nodes {
		n := n
		go func() {
			for i := 0; i < per; i++ {
				if err := n.Submit(1, []byte(fmt.Sprintf("%v-%d", n.Self(), i))); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	var seqs [3][]string
	for i, n := range nodes {
		for k := 0; k < 3*per; k++ {
			d := recvDelivery(t, n)
			seqs[i] = append(seqs[i], string(d.Payload))
		}
	}
	for i := 1; i < 3; i++ {
		for k := range seqs[0] {
			if seqs[i][k] != seqs[0][k] {
				t.Fatalf("node %d diverges at %d: %q vs %q", i+1, k, seqs[i][k], seqs[0][k])
			}
		}
	}
}

func TestNodeViewChangeOnCrash(t *testing.T) {
	net, nodes := newTrio(t)
	for _, n := range nodes {
		if err := n.BootstrapGroup(1, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	net.Crash(3)
	deadline := time.After(20 * time.Second)
	for _, n := range nodes[:2] {
		for {
			select {
			case ev := <-n.Events():
				if ev.Kind == EventViewChanged && !ev.View.Contains(3) {
					goto next
				}
			case <-deadline:
				t.Fatalf("%v never installed a view excluding P3", n.Self())
			}
		}
	next:
	}
	v, err := nodes[0].View(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 2 {
		t.Errorf("view = %v, want 2 members", v)
	}
}

func TestNodeDynamicFormationAndLeave(t *testing.T) {
	_, nodes := newTrio(t)
	if err := nodes[0].CreateGroup(5, core.Symmetric, members(3)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(20 * time.Second)
	for _, n := range nodes {
		for {
			select {
			case ev := <-n.Events():
				if ev.Kind == EventGroupReady && ev.Group == 5 {
					goto ready
				}
				if ev.Kind == EventFormationFailed {
					t.Fatalf("%v: formation failed: %s", n.Self(), ev.Reason)
				}
			case <-deadline:
				t.Fatalf("%v: formation never completed", n.Self())
			}
		}
	ready:
	}
	if err := nodes[1].Submit(5, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		d := recvDelivery(t, n)
		if string(d.Payload) != "hello" || d.Group != 5 || d.Sender != 2 {
			t.Errorf("%v got %+v", n.Self(), d)
		}
	}
	if err := nodes[2].LeaveGroup(5); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Submit(5, []byte("x")); !errors.Is(err, core.ErrLeftGroup) {
		t.Errorf("submit after leave: err = %v, want ErrLeftGroup", err)
	}
}

// TestNodeHealDetection: a partition splits a group; once each side has
// excluded the other, the low-rate heal probes to removed members go
// unanswered — until the network heals, when the first message through
// (a probe from the far side) raises EventHealDetected on both sides.
func TestNodeHealDetection(t *testing.T) {
	net := memnet.New(memnet.WithSeed(4))
	var nodes []*Node
	for i := 1; i <= 4; i++ {
		ep, err := net.Attach(types.ProcessID(i))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, New(
			core.Config{Self: types.ProcessID(i), Omega: 10 * time.Millisecond},
			ep,
			Options{HealProbeEvery: 30 * time.Millisecond},
		))
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		net.Close()
	})
	for _, n := range nodes {
		if err := n.BootstrapGroup(1, core.Symmetric, members(4)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	net.Partition([]types.ProcessID{1, 2}, []types.ProcessID{3, 4})

	// Traffic accelerates suspicion; wait for disjoint stable views.
	_ = nodes[0].Submit(1, []byte("side A"))
	_ = nodes[2].Submit(1, []byte("side B"))
	deadline := time.Now().Add(30 * time.Second)
	for {
		vA, errA := nodes[0].View(1)
		vB, errB := nodes[2].View(1)
		if errA == nil && errB == nil && !vA.Contains(3) && !vA.Contains(4) && !vB.Contains(1) && !vB.Contains(2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sides never stabilised: %v / %v", vA, vB)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Probes are flowing into the cut; no heal may be reported yet.
	drainUntil := time.After(100 * time.Millisecond)
	for draining := true; draining; {
		select {
		case ev := <-nodes[0].Events():
			if ev.Kind == EventHealDetected {
				t.Fatalf("heal detected while still partitioned: %+v", ev)
			}
		case <-drainUntil:
			draining = false
		}
	}

	net.Heal()
	for _, n := range []*Node{nodes[0], nodes[2]} {
		healDeadline := time.After(20 * time.Second)
		for {
			select {
			case ev := <-n.Events():
				if ev.Kind == EventHealDetected {
					if ev.Group != 1 {
						t.Fatalf("heal event for wrong group: %+v", ev)
					}
					far := map[types.ProcessID]bool{3: true, 4: true}
					if n.Self() >= 3 {
						far = map[types.ProcessID]bool{1: true, 2: true}
					}
					if !far[ev.Peer] {
						t.Fatalf("%v: healed peer %v is not from the far side", n.Self(), ev.Peer)
					}
					goto next
				}
			case <-healDeadline:
				t.Fatalf("%v: EventHealDetected never posted", n.Self())
			}
		}
	next:
	}
}

func TestNodeSubmitUnknownGroup(t *testing.T) {
	_, nodes := newTrio(t)
	if err := nodes[0].Submit(99, []byte("x")); !errors.Is(err, core.ErrUnknownGroup) {
		t.Errorf("err = %v, want ErrUnknownGroup", err)
	}
}

func TestNodeCloseIsIdempotentAndUnblocks(t *testing.T) {
	_, nodes := newTrio(t)
	n := nodes[0]
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	select {
	case _, ok := <-n.Deliveries():
		if ok {
			t.Error("unexpected delivery after close")
		}
	case <-time.After(time.Second):
		t.Error("deliveries channel not closed")
	}
}

func TestNodeStatsAndGroupReady(t *testing.T) {
	_, nodes := newTrio(t)
	for _, n := range nodes {
		if err := n.BootstrapGroup(1, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	if !nodes[0].GroupReady(1) {
		t.Error("bootstrapped group not ready")
	}
	if err := nodes[0].Submit(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvDelivery(t, nodes[0])
	st := nodes[0].Stats()
	if st.DataSent != 1 {
		t.Errorf("DataSent = %d, want 1", st.DataSent)
	}
	if st.Delivered == 0 {
		t.Error("Delivered = 0")
	}
}

func TestNodeSubscribeGroupRoutesDeliveries(t *testing.T) {
	_, nodes := newTrio(t)
	// Subscribing before the group exists is allowed — it guarantees the
	// subscriber sees the group's very first delivery.
	sub, err := nodes[0].SubscribeGroup(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].SubscribeGroup(7); err == nil {
		t.Fatal("double subscribe succeeded")
	}
	for _, n := range nodes {
		if err := n.BootstrapGroup(7, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	// A second group (distinct membership — identical memberships are
	// forbidden, §5.3) to show the shared channel still works.
	for _, n := range nodes[:2] {
		if err := n.BootstrapGroup(8, core.Symmetric, members(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[1].Submit(7, []byte("to-sink")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Submit(8, []byte("to-shared")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub:
		if string(d.Payload) != "to-sink" || d.Group != 7 {
			t.Fatalf("sink got %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscribed delivery never arrived")
	}
	// The other group still flows through the shared channel.
	d := recvDelivery(t, nodes[0])
	if string(d.Payload) != "to-shared" || d.Group != 8 {
		t.Fatalf("shared channel got %+v", d)
	}
	// Unsubscribe closes the sink and reroutes the group.
	if err := nodes[0].UnsubscribeGroup(7); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub; ok {
		t.Fatal("sink channel not closed by unsubscribe")
	}
	if err := nodes[1].Submit(7, []byte("back-to-shared")); err != nil {
		t.Fatal(err)
	}
	d = recvDelivery(t, nodes[0])
	if string(d.Payload) != "back-to-shared" {
		t.Fatalf("rerouted delivery = %+v", d)
	}
}

func TestNodePostEventSurfacesOnEventsChannel(t *testing.T) {
	_, nodes := newTrio(t)
	nodes[0].PostEvent(Event{Kind: EventStateTransferred, Group: 3, Peer: 2})
	select {
	case ev := <-nodes[0].Events():
		if ev.Kind != EventStateTransferred || ev.Group != 3 || ev.Peer != 2 {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("posted event never surfaced")
	}
}

func TestNodeSubmitPayloadIsCopied(t *testing.T) {
	_, nodes := newTrio(t)
	for _, n := range nodes {
		if err := n.BootstrapGroup(1, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	buf := []byte("original")
	if err := nodes[0].Submit(1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	d := recvDelivery(t, nodes[1])
	if string(d.Payload) != "original" {
		t.Errorf("payload = %q; caller's buffer mutation leaked", d.Payload)
	}
}

// TestNodeDeliveriesSurviveBufferReuse is the receive-side aliasing test
// for the borrowed-buffer contract: with poison-on-release enabled, every
// transport buffer is scribbled the moment its last reference drops, so a
// delivery that still aliased transport memory would surface as poisoned
// payload bytes. Distinct payloads from all three nodes must come out of
// the delivery stream byte-exact while buffers churn underneath.
func TestNodeDeliveriesSurviveBufferReuse(t *testing.T) {
	prev := wire.SetPoisonOnRelease(true)
	defer wire.SetPoisonOnRelease(prev)

	_, nodes := newTrio(t)
	for _, n := range nodes {
		if err := n.BootstrapGroup(1, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	const per = 64
	for _, n := range nodes {
		n := n
		go func() {
			for i := 0; i < per; i++ {
				if err := n.Submit(1, []byte(fmt.Sprintf("payload-%v-%03d", n.Self(), i))); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	next := make(map[types.ProcessID]int)
	for i := 0; i < 3*per; i++ {
		d := recvDelivery(t, nodes[2])
		want := fmt.Sprintf("payload-%v-%03d", d.Sender, next[d.Sender])
		if string(d.Payload) != want {
			t.Fatalf("delivery %d: payload = %q, want %q (poisoned or stale buffer?)", i, d.Payload, want)
		}
		next[d.Sender]++
	}
}

// TestNodeUnsubscribeReroutesResidue pins the unsubscribe contract: a
// subscriber that stops reading leaves ordered deliveries queued in its
// sink; UnsubscribeGroup must hand every one of them — including the one
// the sink's pump had in flight — to the shared channel, in order, ahead
// of later deliveries.
func TestNodeUnsubscribeReroutesResidue(t *testing.T) {
	_, nodes := newTrio(t)
	sub, err := nodes[0].SubscribeGroup(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.BootstrapGroup(7, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	const total = 5
	for i := 0; i < total; i++ {
		if err := nodes[1].Submit(7, []byte{'r', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for every delivery to reach the (unread) sink.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].Stats().Delivered < total {
		if time.Now().After(deadline) {
			t.Fatalf("deliveries stalled: %+v", nodes[0].Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// Never read sub; unsubscribe must reroute the whole residue.
	if err := nodes[0].UnsubscribeGroup(7); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub; ok {
		t.Fatal("sink channel not closed")
	}
	// A post-unsubscribe delivery must arrive after the residue.
	if err := nodes[1].Submit(7, []byte("after")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		d := recvDelivery(t, nodes[0])
		if want := string([]byte{'r', byte('0' + i)}); string(d.Payload) != want {
			t.Fatalf("residue[%d] = %q, want %q", i, d.Payload, want)
		}
	}
	if d := recvDelivery(t, nodes[0]); string(d.Payload) != "after" {
		t.Fatalf("post-unsubscribe delivery = %q, want \"after\"", d.Payload)
	}
	// Unsubscribing an unknown group is a no-op, not an error.
	if err := nodes[0].UnsubscribeGroup(99); err != nil {
		t.Fatal(err)
	}
}

// TestNodeGroupSendsStopAfterLeave pins newtop_node_group_sends_total as
// the quiescence probe: a group's transmission count grows while the node
// participates (ω-nulls at minimum) and freezes once the node leaves it.
func TestNodeGroupSendsStopAfterLeave(t *testing.T) {
	_, nodes := newTrio(t)
	sends := nodes[0].Metrics().Counter(`newtop_node_group_sends_total{group="7"}`)
	for _, n := range nodes {
		if err := n.BootstrapGroup(7, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for sends.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no traffic ever counted in g7")
		}
		time.Sleep(time.Millisecond)
	}
	if err := nodes[0].LeaveGroup(7); err != nil {
		t.Fatal(err)
	}
	base := sends.Value()
	time.Sleep(100 * time.Millisecond) // 10ω of would-be null traffic
	if got := sends.Value(); got != base {
		t.Errorf("left group still sending: %d -> %d", base, got)
	}
}

func TestNodePromptNullsDeliverWithoutWaitingForOmega(t *testing.T) {
	// With ω = 10s no time-silence null fires during the test: only the
	// receivers' prompt nulls (Engine.Flush after each inbound burst) can
	// carry the multicasts past the symmetric delivery gate. Every node
	// sends once, so each hears from all the others and answers; the
	// pauses let each send witness the previous ones, so the last one is
	// numbered above every other node's messages.
	_, nodes := newTrio(t, func(cfg *core.Config) { cfg.Omega = 10 * time.Second })
	for _, n := range nodes {
		if err := n.BootstrapGroup(1, core.Symmetric, members(3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.Submit(1, []byte(n.Self().String())); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	deadline := time.After(2 * time.Second)
	for _, n := range nodes {
		for i := 0; i < len(nodes); i++ {
			select {
			case <-n.Deliveries():
			case <-deadline:
				t.Fatalf("%v delivered %d of %d within 2s (ω = 10s): no prompt null", n.Self(), i, len(nodes))
			}
		}
	}
}
