// Package node is the concurrent runtime around a Newtop protocol engine:
// one event-loop goroutine per process that serialises transport receipts,
// timer ticks and application calls into the single-threaded engine, and
// fans the engine's effects out to the network and to application-facing
// channels.
//
// The loop never blocks on the application: deliveries and membership
// events are buffered in unbounded queues drained by pump goroutines, so a
// slow consumer delays itself, not the protocol. Flow control (the
// engine's window) is the mechanism that bounds memory under sustained
// overload.
package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/obs"
	"newtop/internal/ring"
	"newtop/internal/simtime"
	"newtop/internal/transport"
	"newtop/internal/types"
)

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("node: closed")

// Delivery is one application message delivered in the agreed order.
// Payload is owned memory (the node seals borrowed transport buffers
// before the engine retains them), so consumers — including the
// SubscribeGroup fan-out feeding rsm appliers — may hold it indefinitely
// without copying.
type Delivery struct {
	Group   types.GroupID
	Sender  types.ProcessID // the multicast's author
	Num     types.MsgNum    // the multicast's Lamport number (trace identity)
	Payload []byte
	ViewIdx int
	// Pos is the entry's address in the group's delivery stream —
	// identical at every member (total order), so the replication and
	// durability layers key snapshots, WAL records and replay on it.
	Pos types.LogPos
}

// EventKind tags membership events surfaced to the application.
type EventKind uint8

// Membership event kinds.
const (
	EventViewChanged EventKind = iota + 1
	EventGroupReady
	EventFormationFailed
	EventSuspected
	// EventStateTransferred is posted by the replication layer
	// (internal/rsm) when a replica finishes catching up: a snapshot plus
	// replay tail moved the group's state to this process.
	EventStateTransferred
	// EventHealDetected is posted when a message arrives from a process
	// this node had excluded from a group's view — the signal that a
	// partition healed (the node probes removed members at a low rate to
	// elicit exactly this). Groups never remerge (§5); the application
	// reacts by forming a merged successor group and reconciling, see
	// the rsm package.
	EventHealDetected
	// EventReconciled is posted by the replication layer when a
	// reconciliation completes: the group's members converged to the
	// merged state.
	EventReconciled
)

// Event is a membership-service notification.
type Event struct {
	Kind    EventKind
	Group   types.GroupID
	View    types.View        // EventViewChanged
	Removed []types.ProcessID // EventViewChanged
	Reason  string            // EventFormationFailed
	Suspect types.ProcessID   // EventSuspected
	Peer    types.ProcessID   // EventStateTransferred: the streamer; EventHealDetected: the healed peer
}

// DefaultHealProbeEvery is the default cadence of heal probes to removed
// members.
const DefaultHealProbeEvery = 2 * time.Second

// Options tunes the runtime.
type Options struct {
	// Clock supplies time; nil selects the wall clock.
	Clock simtime.Clock
	// TickEvery overrides the engine tick cadence (default ω/2).
	TickEvery time.Duration
	// HealProbeEvery is how often the node probes members excluded from
	// a view to detect a healed partition (any message arriving from a
	// removed member — a probe or otherwise — raises EventHealDetected).
	// Zero selects DefaultHealProbeEvery; negative disables probing.
	HealProbeEvery time.Duration
	// RingThreshold is the payload size in bytes at or above which a data
	// multicast is disseminated along the view-defined ring instead of
	// unicast to every member (see internal/ring). Zero disables ring
	// dissemination.
	RingThreshold int
	// RingPullAfter overrides how long a ring reassembly waits for its
	// payload before re-requesting it from the disseminator (default
	// 250ms). Only meaningful with RingThreshold > 0.
	RingPullAfter time.Duration
	// Metrics, when set, receives the node's observability series
	// (per-group send counters, heal-probe activity, sink reroutes) and is
	// shared with the ring layer. When nil the node counts into a private
	// registry.
	Metrics *obs.Registry
}

// Node runs one Newtop process: engine + transport + timers.
type Node struct {
	eng  *core.Engine
	ep   transport.Endpoint
	clk  simtime.Clock
	tick time.Duration

	calls chan func()
	done  chan struct{} // closed by Close
	dead  chan struct{} // closed when the loop exits (e.g. transport gone)
	wg    sync.WaitGroup

	deliveries *outbox[Delivery]
	events     *outbox[Event]

	// sinks routes one group's deliveries to a dedicated subscriber (the
	// replication layer's per-group applier) instead of the shared
	// Deliveries channel. Only the event loop touches the map.
	sinks map[types.GroupID]*outbox[Delivery]

	// sent counts point-to-point transmissions per group (protocol and
	// probe traffic alike) — the observability hook for verifying that a
	// superseded or departed group has actually gone quiet. The values are
	// registry counters (`newtop_node_group_sends_total{group=...}`); only
	// the event loop touches the map, the counters themselves are atomic.
	reg  *obs.Registry
	sent map[types.GroupID]*obs.Counter
	om   nodeMetrics
	trc  *obs.Tracer // engine's tracer (from core.Config); rsm stamps StageApplied

	// rng is the ring-dissemination layer (nil when RingThreshold is 0):
	// outbound SendEffects and inbound messages thread through it, the
	// engine sees only reassembled ordinary traffic. ringQ buffers
	// messages the ring released while the loop was mid-way through an
	// effects batch (a view change flushing a reassembly queue); apply
	// feeds them to the engine once the batch is done, because the
	// engine's effects buffer is reused across calls.
	rng   *ring.Ring
	ringQ []ring.Delivered

	// Heal detection (only the event loop touches these): removed
	// tracks, per group, the processes excluded from the view; healed
	// marks (group, peer) pairs whose heal has already been reported so
	// the event fires once. Probes to removed members go out every
	// probeEvery until the group is left (see maybeProbe for why they
	// must not stop at first detection).
	removed    map[types.GroupID]map[types.ProcessID]bool
	healed     map[groupPeer]bool
	probeEvery time.Duration
	lastProbe  time.Time

	// excluded remembers, per peer, the last group this node excluded it
	// from — and unlike removed it SURVIVES leaving that group. A process
	// that recovers from disk announces itself by probing in its
	// recovered group incarnation, which may no longer match the group
	// the survivors excluded it from (they may have superseded it while
	// the peer was down); excluded lets noteInbound recognise the peer
	// anyway. Entries clear when a later view or formed group readmits
	// the peer.
	excluded map[types.ProcessID]types.GroupID

	closeOnce sync.Once
}

// groupPeer keys the heal-detection debounce.
type groupPeer struct {
	g types.GroupID
	p types.ProcessID
}

// nodeMetrics holds the node's pre-resolved observability handles.
type nodeMetrics struct {
	healProbes    *obs.Counter // probe nulls sent to removed members
	healsDetected *obs.Counter // partition heals observed (debounced)
	sinkRerouted  *obs.Counter // queued sink deliveries rerouted on unsubscribe
}

func newNodeMetrics(reg *obs.Registry) nodeMetrics {
	return nodeMetrics{
		healProbes:    reg.Counter("newtop_node_heal_probes_total"),
		healsDetected: reg.Counter("newtop_node_heals_detected_total"),
		sinkRerouted:  reg.Counter("newtop_node_sink_rerouted_total"),
	}
}

// sendInc bumps group g's transmission counter, resolving the handle on
// first use. Only the event loop calls it.
func (n *Node) sendInc(g types.GroupID) {
	c, ok := n.sent[g]
	if !ok {
		c = n.reg.Counter(fmt.Sprintf(`newtop_node_group_sends_total{group="%d"}`, uint64(g)))
		n.sent[g] = c
	}
	c.Inc()
}

// New creates and starts a node over the given endpoint. The endpoint's
// identity must match cfg.Self.
func New(cfg core.Config, ep transport.Endpoint, opts Options) *Node {
	clk := opts.Clock
	if clk == nil {
		clk = simtime.Real{}
	}
	eng := core.NewEngine(cfg)
	tick := opts.TickEvery
	if tick <= 0 {
		tick = eng.Omega() / 2
		if tick <= 0 {
			tick = core.DefaultOmega / 2
		}
	}
	probeEvery := opts.HealProbeEvery
	if probeEvery == 0 {
		probeEvery = DefaultHealProbeEvery
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n := &Node{
		eng:        eng,
		ep:         ep,
		clk:        clk,
		tick:       tick,
		calls:      make(chan func()),
		done:       make(chan struct{}),
		dead:       make(chan struct{}),
		deliveries: newOutbox[Delivery](),
		events:     newOutbox[Event](),
		sinks:      make(map[types.GroupID]*outbox[Delivery]),
		reg:        reg,
		sent:       make(map[types.GroupID]*obs.Counter),
		om:         newNodeMetrics(reg),
		trc:        cfg.Tracer,
		removed:    make(map[types.GroupID]map[types.ProcessID]bool),
		healed:     make(map[groupPeer]bool),
		excluded:   make(map[types.ProcessID]types.GroupID),
		probeEvery: probeEvery,
		lastProbe:  clk.Now(),
	}
	if opts.RingThreshold > 0 {
		n.rng = ring.New(ring.Config{
			Self:      cfg.Self,
			Threshold: opts.RingThreshold,
			PullAfter: opts.RingPullAfter,
			Metrics:   reg,
		})
	}
	n.wg.Add(1)
	go n.loop()
	return n
}

// Self returns the process identifier.
func (n *Node) Self() types.ProcessID { return n.eng.Self() }

// Deliveries returns the ordered application-delivery channel. It is
// closed when the node closes.
func (n *Node) Deliveries() <-chan Delivery { return n.deliveries.ch }

// Events returns the membership-event channel. It is closed when the node
// closes.
func (n *Node) Events() <-chan Event { return n.events.ch }

// Close stops the node. The transport endpoint is closed as well.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		_ = n.ep.Close()
		n.wg.Wait() // loop stopped: sinks is safe to read from here
		n.deliveries.close()
		n.events.close()
		for _, s := range n.sinks {
			s.close()
		}
	})
	n.wg.Wait()
	return nil
}

// SubscribeGroup diverts group g's deliveries from the shared Deliveries
// channel to a dedicated channel — the replication layer's per-group
// applier feed. One subscriber per group; the channel is closed by
// UnsubscribeGroup or Close. Subscribing to a group that does not exist
// yet is allowed (and is how a replica guarantees it sees the group's very
// first delivery).
func (n *Node) SubscribeGroup(g types.GroupID) (<-chan Delivery, error) {
	var (
		ch  <-chan Delivery
		err error
	)
	cerr := n.call(func() {
		if _, ok := n.sinks[g]; ok {
			err = fmt.Errorf("node: group %v already subscribed", g)
			return
		}
		ob := newOutbox[Delivery]()
		n.sinks[g] = ob
		ch = ob.ch
	})
	if cerr != nil {
		return nil, cerr
	}
	return ch, err
}

// UnsubscribeGroup removes g's delivery subscription; subsequent
// deliveries go to the shared channel again. The subscriber's channel is
// closed, and deliveries still queued in it — ordered, never consumed —
// are rerouted to the shared channel, ahead of any delivery routed there
// afterwards: unsubscribing loses nothing.
func (n *Node) UnsubscribeGroup(g types.GroupID) error {
	return n.call(func() {
		ob, ok := n.sinks[g]
		if !ok {
			return
		}
		delete(n.sinks, g)
		// drain's wait is on the sink's own pump goroutine, which exits
		// as soon as the sink closes — safe from inside the event loop.
		for _, d := range ob.drain() {
			n.om.sinkRerouted.Inc()
			n.deliveries.push(d)
		}
	})
}

// Metrics returns the node's observability registry (never nil).
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Tracer returns the engine's delivery-stream tracer (nil when tracing is
// off); downstream layers use it to stamp the applied stage.
func (n *Node) Tracer() *obs.Tracer { return n.trc }

// PostEvent publishes an application-layer event (e.g. the replication
// layer's EventStateTransferred) on the node's Events channel.
func (n *Node) PostEvent(ev Event) { n.events.push(ev) }

// call runs fn inside the event loop and waits for it.
func (n *Node) call(fn func()) error {
	doneCh := make(chan struct{})
	select {
	case n.calls <- func() { fn(); close(doneCh) }:
	case <-n.done:
		return ErrClosed
	case <-n.dead:
		return ErrClosed
	}
	select {
	case <-doneCh:
		return nil
	case <-n.done:
		return ErrClosed
	case <-n.dead:
		return ErrClosed
	}
}

// Submit multicasts payload in group g with the group's ordering mode.
func (n *Node) Submit(g types.GroupID, payload []byte) error {
	var err error
	p := append([]byte(nil), payload...) // caller keeps its slice
	cerr := n.call(func() {
		var effs []core.Effect
		effs, err = n.eng.Submit(n.clk.Now(), g, p)
		n.apply(effs)
	})
	if cerr != nil {
		return cerr
	}
	return err
}

// BootstrapGroup installs a statically agreed group (§4 style).
func (n *Node) BootstrapGroup(g types.GroupID, mode core.OrderMode, members []types.ProcessID) error {
	var err error
	ms := append([]types.ProcessID(nil), members...)
	cerr := n.call(func() {
		var effs []core.Effect
		effs, err = n.eng.BootstrapGroup(n.clk.Now(), g, mode, ms)
		n.apply(effs)
	})
	if cerr != nil {
		return cerr
	}
	return err
}

// CreateGroup initiates dynamic group formation (§5.3).
func (n *Node) CreateGroup(g types.GroupID, mode core.OrderMode, members []types.ProcessID) error {
	var err error
	ms := append([]types.ProcessID(nil), members...)
	cerr := n.call(func() {
		var effs []core.Effect
		effs, err = n.eng.CreateGroup(n.clk.Now(), g, mode, ms)
		n.apply(effs)
	})
	if cerr != nil {
		return cerr
	}
	return err
}

// LeaveGroup departs group g. Heal probing for the group stops: a
// departed group's partitions are no longer this process's business.
func (n *Node) LeaveGroup(g types.GroupID) error {
	var err error
	cerr := n.call(func() {
		var effs []core.Effect
		effs, err = n.eng.LeaveGroup(n.clk.Now(), g)
		n.apply(effs)
		if err == nil {
			for p := range n.removed[g] {
				delete(n.healed, groupPeer{g, p})
			}
			delete(n.removed, g)
			if n.rng != nil {
				n.rng.DropGroup(g)
			}
		}
	})
	if cerr != nil {
		return cerr
	}
	return err
}

// View returns the current membership view of g.
func (n *Node) View(g types.GroupID) (types.View, error) {
	var v types.View
	var err error
	cerr := n.call(func() { v, err = n.eng.View(g) })
	if cerr != nil {
		return types.View{}, cerr
	}
	return v, err
}

// GroupReady reports whether g has completed formation.
func (n *Node) GroupReady(g types.GroupID) bool {
	var ok bool
	_ = n.call(func() { ok = n.eng.GroupReady(g) })
	return ok
}

// Stats snapshots the engine counters.
func (n *Node) Stats() core.Stats {
	var s core.Stats
	_ = n.call(func() { s = n.eng.Stats() })
	return s
}

// loop is the single-threaded protocol driver.
func (n *Node) loop() {
	defer n.wg.Done()
	defer close(n.dead)
	timer := n.clk.After(n.tick)
	for {
		select {
		case <-n.done:
			return
		case fn := <-n.calls:
			fn()
		case in, ok := <-n.ep.Recv():
			if !ok {
				return
			}
			n.receive(in)
			// Handle whatever else is ready, then answer the burst: one
			// prompt null per symmetric group owed one (Engine.Flush).
		burst:
			for i := 1; i < maxBurst; i++ {
				select {
				case in, ok := <-n.ep.Recv():
					if !ok {
						return
					}
					n.receive(in)
				default:
					break burst
				}
			}
			n.apply(n.eng.Flush(n.clk.Now()))
		case <-timer:
			now := n.clk.Now()
			n.apply(n.eng.Tick(now))
			if n.rng != nil {
				for _, o := range n.rng.Tick(now) {
					n.sendInc(o.Msg.Group)
					_ = n.ep.Send(o.To, o.Msg)
				}
			}
			n.maybeProbe(now)
			timer = n.clk.After(n.tick)
		}
	}
}

// maxBurst bounds how many ready inbound messages the loop handles before
// it flushes prompt nulls and lets timers and calls in.
const maxBurst = 64

// receive hands one inbound message to the ring layer or the engine, and
// a peer-down hint straight to the engine's suspector.
func (n *Node) receive(in transport.Inbound) {
	if in.Down {
		// The hint trails the peer's last frame, and every ring delivery
		// those frames released has been applied (ringQ drains in apply),
		// so the suspicion's ln covers everything the peer sent.
		n.apply(n.eng.Suspect(n.clk.Now(), in.From))
		return
	}
	n.noteInbound(in.From, in.Msg.Group)
	if n.rng != nil {
		// Ring path: relay outbounds may alias the borrowed transport
		// buffer, and the endpoint marshals frames during Send — so
		// relays go out before the buffer is released, zero copies.
		// Whatever the ring releases to the engine owns its memory
		// already.
		outs, delivers := n.rng.OnReceive(n.clk.Now(), in.From, in.Msg)
		for _, o := range outs {
			n.sendInc(o.Msg.Group)
			_ = n.ep.Send(o.To, o.Msg)
		}
		in.Release()
		n.ringQ = append(n.ringQ, delivers...)
		n.apply(nil)
		return
	}
	// The engine retains stimuli (data messages sit in its log until
	// stability), so a borrowed message is sealed — its payload copied
	// out of the transport buffer — before the buffer reference goes
	// back. This is the single copy left on the receive path.
	if in.Buf != nil {
		in.Msg.Own()
		in.Release()
	}
	n.apply(n.eng.HandleMessage(n.clk.Now(), in.From, in.Msg))
}

// apply routes one engine effects batch, then feeds the engine whatever
// the ring layer released while the batch was being routed (each feed may
// queue more). Deferring those stimuli matters: the effects slice aliases
// the engine's reusable buffer, so the engine must not re-enter while a
// batch is mid-iteration.
func (n *Node) apply(effs []core.Effect) {
	n.route(effs)
	for len(n.ringQ) > 0 {
		d := n.ringQ[0]
		n.ringQ[0] = ring.Delivered{}
		n.ringQ = n.ringQ[1:]
		if len(n.ringQ) == 0 {
			n.ringQ = nil
		}
		n.route(n.eng.HandleMessage(n.clk.Now(), d.From, d.Msg))
	}
}

// noteInbound watches for the heal signal: any message arriving from a
// process this node excluded from the message's group. The engine will
// discard the message itself (§5.2) — the arrival is the information.
//
// The fallback path recognises an excluded peer even when the message's
// group does not match the group the exclusion happened in: a peer
// recovering from disk announces in its recovered (possibly stale) group
// incarnation, and survivors may have superseded and left the group they
// excluded it from. The event then carries the exclusion's group.
func (n *Node) noteInbound(from types.ProcessID, g types.GroupID) {
	if rm := n.removed[g]; rm != nil && rm[from] {
		key := groupPeer{g, from}
		if !n.healed[key] {
			n.healed[key] = true
			n.om.healsDetected.Inc()
			n.events.push(Event{Kind: EventHealDetected, Group: g, Peer: from})
		}
		return
	}
	if exg, ok := n.excluded[from]; ok {
		key := groupPeer{exg, from}
		if !n.healed[key] {
			n.healed[key] = true
			n.om.healsDetected.Inc()
			n.events.push(Event{Kind: EventHealDetected, Group: exg, Peer: from})
		}
	}
}

// Probe sends one probe null per peer in group g, bypassing the removed-
// member bookkeeping — the announcement a process recovered from local
// storage uses to make its former partners' heal detection notice it
// (their own probes stop reaching a restarted process's old incarnation,
// and a recovered process has removed nobody, so without announcing it
// would wait forever). The receiving engines discard the null; the
// arrival is the signal.
func (n *Node) Probe(g types.GroupID, peers []types.ProcessID) error {
	ps := append([]types.ProcessID(nil), peers...)
	return n.call(func() {
		self := n.eng.Self()
		for _, p := range ps {
			if p == self {
				continue
			}
			n.sendInc(g)
			n.om.healProbes.Inc()
			_ = n.ep.Send(p, &types.Message{Kind: types.KindNull, Group: g, Sender: self, Origin: self})
		}
	})
}

// readmit clears the cross-group exclusion record (and its heal-event
// debounce) of every peer in members: a view or formed group that
// includes a peer supersedes any earlier exclusion of it.
func (n *Node) readmit(members []types.ProcessID) {
	for _, p := range members {
		if exg, ok := n.excluded[p]; ok {
			delete(n.excluded, p)
			delete(n.healed, groupPeer{exg, p})
		}
	}
}

// maybeProbe sends a low-rate null to every removed member. A probe that
// gets through is discarded by the receiving engine (its sender is
// removed there too) but trips the receiver's noteInbound — each side
// learns of the heal from the other's probes.
//
// Probing continues even after this side has observed the heal: stopping
// then would starve the FAR side of its own detection signal whenever our
// pre-heal probes were all lost to the cut and its probes reached us
// first — a one-sided heal that strands the far side forever (it keeps
// probing, we never answer, and only the application's merged-group
// invitation could save it). The steady-state cost is one tiny message
// per probeEvery per removed member, and it ends when the application
// drains and leaves the group (LeaveGroup clears the removed set). A
// genuinely crashed member simply never answers.
func (n *Node) maybeProbe(now time.Time) {
	if n.probeEvery < 0 || now.Sub(n.lastProbe) < n.probeEvery {
		return
	}
	n.lastProbe = now
	self := n.eng.Self()
	for g, peers := range n.removed {
		for p := range peers {
			n.sendInc(g)
			n.om.healProbes.Inc()
			_ = n.ep.Send(p, &types.Message{Kind: types.KindNull, Group: g, Sender: self, Origin: self})
		}
	}
}

// route executes engine effects: transmissions to the endpoint,
// everything else to the application queues.
func (n *Node) route(effs []core.Effect) {
	for _, eff := range effs {
		switch eff := eff.(type) {
		case core.SendEffect:
			// Transport loss surfaces through the protocol's own
			// failure handling; nothing useful to do with the error
			// here beyond not wedging the loop.
			if n.rng != nil {
				for _, o := range n.rng.OnSend(eff.To, eff.Msg) {
					n.sendInc(o.Msg.Group)
					_ = n.ep.Send(o.To, o.Msg)
				}
				continue
			}
			n.sendInc(eff.Msg.Group)
			_ = n.ep.Send(eff.To, eff.Msg)
		case core.DeliverEffect:
			d := Delivery{
				Group:   eff.Msg.Group,
				Sender:  eff.Msg.Origin,
				Num:     eff.Msg.Num,
				Payload: eff.Msg.Payload,
				ViewIdx: eff.View,
				Pos:     types.LogPos{Group: eff.Msg.Group, Index: eff.Index},
			}
			if sink, ok := n.sinks[d.Group]; ok {
				sink.push(d)
			} else {
				n.deliveries.push(d)
			}
		case core.ViewEffect:
			g := eff.View.Group
			rm := n.removed[g]
			if rm == nil {
				rm = make(map[types.ProcessID]bool)
				n.removed[g] = rm
			}
			for _, p := range eff.Removed {
				rm[p] = true
				n.excluded[p] = g
			}
			n.readmit(eff.View.Members)
			if n.rng != nil {
				outs, delivers := n.rng.OnViewChange(g, eff.View.Members, eff.Removed, eff.Stable)
				for _, o := range outs {
					n.sendInc(o.Msg.Group)
					_ = n.ep.Send(o.To, o.Msg)
				}
				n.ringQ = append(n.ringQ, delivers...)
			}
			n.events.push(Event{
				Kind:    EventViewChanged,
				Group:   g,
				View:    eff.View,
				Removed: eff.Removed,
			})
		case core.GroupReadyEffect:
			// A formed group's first view may arrive without a ViewEffect;
			// read it from the engine (a pure read, safe mid-batch) to seed
			// the ring order and clear exclusions the formation readmitted.
			if v, err := n.eng.View(eff.Group); err == nil {
				n.readmit(v.Members)
				if n.rng != nil {
					outs, delivers := n.rng.OnViewChange(eff.Group, v.Members, nil, 0)
					for _, o := range outs {
						n.sendInc(o.Msg.Group)
						_ = n.ep.Send(o.To, o.Msg)
					}
					n.ringQ = append(n.ringQ, delivers...)
				}
			}
			n.events.push(Event{Kind: EventGroupReady, Group: eff.Group})
		case core.FormationFailedEffect:
			n.events.push(Event{Kind: EventFormationFailed, Group: eff.Group, Reason: eff.Reason})
		case core.SuspectEffect:
			n.events.push(Event{Kind: EventSuspected, Group: eff.Group, Suspect: eff.Susp.Proc})
		}
	}
}

// outbox is an unbounded queue pumped into a channel, so the protocol loop
// never blocks on a slow application consumer.
type outbox[T any] struct {
	ch     chan T
	done   chan struct{}
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []T
	closed bool
	wg     sync.WaitGroup
}

func newOutbox[T any]() *outbox[T] {
	o := &outbox[T]{ch: make(chan T), done: make(chan struct{})}
	o.cond = sync.NewCond(&o.mu)
	o.wg.Add(1)
	go o.pump()
	return o
}

func (o *outbox[T]) push(v T) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	o.queue = append(o.queue, v)
	o.cond.Signal()
}

func (o *outbox[T]) close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	o.cond.Signal()
	o.mu.Unlock()
	close(o.done)
	o.wg.Wait()
}

// drain closes the outbox and returns every queued item the consumer never
// received, in order — including the one the pump had in flight (the head
// stays queued until the consumer takes it, so nothing slips the residue).
func (o *outbox[T]) drain() []T {
	o.close()
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.queue
	o.queue = nil
	return q
}

func (o *outbox[T]) pump() {
	defer o.wg.Done()
	defer close(o.ch)
	for {
		o.mu.Lock()
		for len(o.queue) == 0 && !o.closed {
			o.cond.Wait()
		}
		if o.closed {
			o.mu.Unlock()
			return
		}
		// Peek, don't pop: the head is dequeued only after the consumer
		// takes it, so an abandoned pump leaves it for drain.
		v := o.queue[0]
		o.mu.Unlock()
		// A consumer that stops reading must not wedge shutdown.
		select {
		case o.ch <- v:
			o.mu.Lock()
			var zero T
			o.queue[0] = zero
			o.queue = o.queue[1:]
			if len(o.queue) == 0 {
				o.queue = nil
			}
			o.mu.Unlock()
		case <-o.done:
			return
		}
	}
}
