// Package sim is a deterministic discrete-event simulator for Newtop
// protocol engines. It owns virtual time, a seeded latency model, link
// cuts/partitions and crash injection (including crash-mid-multicast), and
// routes engine effects: SendEffects become future arrival events with
// per-pair FIFO preserved, deliveries and view changes are recorded in
// per-process histories.
//
// Everything is single-threaded and seeded, so every scenario — including
// the paper's failure examples — replays bit-for-bit identically. The
// goroutine-based runtimes (internal/node over memnet/tcpnet) exercise the
// same engines under real concurrency; sim is where ordering properties
// are asserted exactly.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"newtop/internal/core"
	"newtop/internal/ring"
	"newtop/internal/types"
	"newtop/internal/wire"
)

// Epoch is the virtual time origin of every simulation.
var Epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Option configures a Cluster.
type Option func(*Cluster)

// WithLatency sets the message-latency band [min, max). Default [1ms, 5ms).
func WithLatency(min, max time.Duration) Option {
	return func(c *Cluster) { c.latMin, c.latMax = min, max }
}

// WithTickEvery sets how often each engine's Tick fires. Default ω/2 of
// the first process added.
func WithTickEvery(d time.Duration) Option {
	return func(c *Cluster) { c.tickEvery = d }
}

// WithWireCodec makes every simulated message round-trip the wire codec:
// encoded into a pooled buffer at transmit time (as the real transports
// marshal at enqueue — the calendar holds bytes, never a live *Message),
// then decoded borrowed at arrival, sealed and released exactly the way
// the real node runtime does it (Message.Own, then Release). With
// poison-on-release enabled, any borrowed slice the seal misses — or any
// retention of released buffer memory — corrupts deterministically and is
// caught by the ordering/digest assertions, instead of surfacing only
// under real network timing. Off by default: the engine benchmarks
// measure the engine, not the codec.
func WithWireCodec() Option {
	return func(c *Cluster) { c.codecPool = wire.NewBufPool(4 << 10) }
}

// WithRing enables ring dissemination (internal/ring) at every process:
// data payloads of at least threshold bytes travel the view-defined ring
// while ordering metadata stays point-to-point, exactly as the node
// runtime wires it. Implies WithWireCodec — messages are encoded at
// transmit time and decoded borrowed at arrival, so in-flight frames are
// bytes (as on a real link) and relay/arena aliasing is exercised under
// the same ownership rules as production.
func WithRing(threshold int) Option {
	return func(c *Cluster) {
		c.ringThreshold = threshold
		if c.codecPool == nil {
			c.codecPool = wire.NewBufPool(4 << 10)
		}
	}
}

// EventKind classifies a recorded history event.
type EventKind uint8

// History event kinds.
const (
	EvSubmit EventKind = iota + 1 // application multicast accepted
	EvDeliver
	EvView // view installation (index 0 = initial view)
	EvReady
	EvFormFailed
	EvSuspect
)

// Event is one observable local event at a process, in local occurrence
// order. The per-process sequence of events is the ground truth the
// property checkers (internal/check) verify MD1–MD5'/VC1–VC3 against.
type Event struct {
	Idx     int // position in the process's local history
	At      time.Time
	Kind    EventKind
	Group   types.GroupID
	Origin  types.ProcessID // EvDeliver: message author; EvSubmit: self
	Num     types.MsgNum    // EvDeliver: m.c
	Seq     uint64          // EvDeliver: origin sequence number
	ViewIdx int             // EvDeliver: view delivered in
	Payload []byte          // EvSubmit/EvDeliver
	View    types.View      // EvView
	Removed []types.ProcessID
	Susp    types.Suspicion // EvSuspect
}

// Delivery is one application delivery recorded at a process.
type Delivery struct {
	At      time.Time
	Group   types.GroupID
	Origin  types.ProcessID
	Num     types.MsgNum
	Seq     uint64
	View    int
	Index   uint64 // position in the group's delivery stream (types.LogPos index)
	Payload []byte
}

// ViewChange is one view installation recorded at a process.
type ViewChange struct {
	At      time.Time
	View    types.View
	Removed []types.ProcessID
}

// History is everything observable that happened at one process.
type History struct {
	Events     []Event
	Deliveries []Delivery
	Views      map[types.GroupID][]ViewChange
	Ready      []types.GroupID // groups that completed formation
	Failed     []types.GroupID // formations that failed
	Suspicions []types.Suspicion
}

func (h *History) record(ev Event) {
	ev.Idx = len(h.Events)
	h.Events = append(h.Events, ev)
}

// Cluster is a deterministic simulation of a set of Newtop processes.
type Cluster struct {
	latMin, latMax time.Duration
	tickEvery      time.Duration

	now      time.Time
	rng      *rand.Rand
	seq      uint64
	cal      calendar
	engines  map[types.ProcessID]*core.Engine
	hist     map[types.ProcessID]*History
	cut      map[[2]types.ProcessID]bool
	crashed  map[types.ProcessID]bool
	lastArr  map[[2]types.ProcessID]time.Time
	armKill  map[types.ProcessID]int // crash after N more transmissions
	msgCount uint64
	byteFn   func(*types.Message) int // optional size accounting
	bytes    uint64
	bytesBy  map[types.ProcessID]uint64

	// Ring dissemination (WithRing): one ring layer per process, sitting
	// between the engine and the link exactly where internal/node puts it.
	// ringQ holds reassembled deliveries that surfaced while an engine
	// effect batch was being routed — the batch aliases the engine's
	// reusable effects buffer, so the engine cannot be reentered until the
	// batch has been fully iterated.
	ringThreshold int
	rings         map[types.ProcessID]*ring.Ring
	ringQ         map[types.ProcessID][]ring.Delivered

	// deliverHook, when set, observes every application delivery (after it
	// is recorded). Hooks may reenter the cluster (Submit and friends) —
	// this is how the replicated-state-machine layer's pure cores are
	// driven deterministically; see internal/harness.
	deliverHook func(p types.ProcessID, d Delivery)

	// codecPool, when non-nil (WithWireCodec), carries every arrival
	// through a borrowed wire round trip.
	codecPool *wire.BufPool
}

// New creates an empty cluster with the given deterministic seed.
func New(seed int64, opts ...Option) *Cluster {
	c := &Cluster{
		latMin:  1 * time.Millisecond,
		latMax:  5 * time.Millisecond,
		now:     Epoch,
		rng:     rand.New(rand.NewSource(seed)),
		engines: make(map[types.ProcessID]*core.Engine),
		hist:    make(map[types.ProcessID]*History),
		cut:     make(map[[2]types.ProcessID]bool),
		crashed: make(map[types.ProcessID]bool),
		lastArr: make(map[[2]types.ProcessID]time.Time),
		armKill: make(map[types.ProcessID]int),
		bytesBy: make(map[types.ProcessID]uint64),
		rings:   make(map[types.ProcessID]*ring.Ring),
		ringQ:   make(map[types.ProcessID][]ring.Delivered),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Time { return c.now }

// AddProcess creates an engine with cfg and registers it. The first
// process's ω fixes the default tick interval.
func (c *Cluster) AddProcess(cfg core.Config) *core.Engine {
	if _, ok := c.engines[cfg.Self]; ok {
		panic(fmt.Sprintf("sim: duplicate process %v", cfg.Self))
	}
	e := core.NewEngine(cfg)
	c.engines[cfg.Self] = e
	c.hist[cfg.Self] = &History{Views: make(map[types.GroupID][]ViewChange)}
	if c.tickEvery == 0 {
		c.tickEvery = e.Omega() / 2
	}
	if c.ringThreshold > 0 {
		// Pull retries ride the tick cadence: a reassembly stuck for a few
		// ticks (header arrived, payload lost on the ring) re-requests the
		// payload from its disseminator well before the engine's
		// time-silence machinery would suspect anyone.
		pull := 4 * c.tickEvery
		if min := 2 * c.latMax; pull < min {
			pull = min
		}
		c.rings[cfg.Self] = ring.New(ring.Config{
			Self:      cfg.Self,
			Threshold: c.ringThreshold,
			PullAfter: pull,
		})
	}
	c.scheduleTick(cfg.Self, c.now.Add(c.tickEvery))
	return e
}

// Engine returns the engine of process p.
func (c *Cluster) Engine(p types.ProcessID) *core.Engine { return c.engines[p] }

// History returns the recorded history of process p.
func (c *Cluster) History(p types.ProcessID) *History { return c.hist[p] }

// Processes returns all process IDs, sorted.
func (c *Cluster) Processes() []types.ProcessID {
	out := make([]types.ProcessID, 0, len(c.engines))
	for p := range c.engines {
		out = append(out, p)
	}
	return types.SortProcesses(out)
}

// CountBytes turns on wire-size accounting using fn (e.g. wire.Size);
// TotalBytes reports the sum over every transmitted message.
func (c *Cluster) CountBytes(fn func(*types.Message) int) { c.byteFn = fn }

// OnDeliver registers fn to observe every application delivery. fn runs
// after the delivering engine's effect batch has been fully routed, so it
// may reenter the cluster (e.g. Submit from the delivering process) — the
// hook is the deterministic analogue of a per-group applier goroutine.
func (c *Cluster) OnDeliver(fn func(p types.ProcessID, d Delivery)) { c.deliverHook = fn }

// TotalBytes returns the accumulated transmitted bytes (CountBytes mode).
func (c *Cluster) TotalBytes() uint64 { return c.bytes }

// BytesSentBy returns the accumulated bytes transmitted by p (CountBytes
// mode) — the per-node NIC load the ring dissemination path exists to
// flatten.
func (c *Cluster) BytesSentBy(p types.ProcessID) uint64 { return c.bytesBy[p] }

// TotalMessages returns the number of point-to-point transmissions routed.
func (c *Cluster) TotalMessages() uint64 { return c.msgCount }

// Bootstrap installs a static group (§4 style) on every member at the
// current instant.
func (c *Cluster) Bootstrap(g types.GroupID, mode core.OrderMode, members []types.ProcessID) error {
	for _, p := range members {
		e, ok := c.engines[p]
		if !ok {
			return fmt.Errorf("sim: bootstrap of %v: no process %v", g, p)
		}
		effs, err := e.BootstrapGroup(c.now, g, mode, members)
		if err != nil {
			return fmt.Errorf("sim: bootstrap %v at %v: %w", g, p, err)
		}
		c.route(p, effs)
	}
	return nil
}

// Submit multicasts payload from p in group g at the current instant. The
// caller keeps its slice: the engine retains submitted payloads (log,
// in-flight messages), so the hand-off copies — the same contract as
// node.Submit, which is what lets callers feed it borrowed frames (e.g. an
// rsm core's arena-backed Submits).
func (c *Cluster) Submit(p types.ProcessID, g types.GroupID, payload []byte) error {
	e, ok := c.engines[p]
	if !ok || c.crashed[p] {
		return fmt.Errorf("sim: no live process %v", p)
	}
	if len(payload) > 0 {
		payload = append([]byte(nil), payload...)
	}
	effs, err := e.Submit(c.now, g, payload)
	if err != nil {
		return err
	}
	c.hist[p].record(Event{At: c.now, Kind: EvSubmit, Group: g, Origin: p, Payload: payload})
	c.route(p, effs)
	return nil
}

// CreateGroup initiates dynamic formation from p.
func (c *Cluster) CreateGroup(p types.ProcessID, g types.GroupID, mode core.OrderMode, members []types.ProcessID) error {
	e, ok := c.engines[p]
	if !ok || c.crashed[p] {
		return fmt.Errorf("sim: no live process %v", p)
	}
	effs, err := e.CreateGroup(c.now, g, mode, members)
	if err != nil {
		return err
	}
	c.route(p, effs)
	return nil
}

// Leave departs p from g.
func (c *Cluster) Leave(p types.ProcessID, g types.GroupID) error {
	e, ok := c.engines[p]
	if !ok || c.crashed[p] {
		return fmt.Errorf("sim: no live process %v", p)
	}
	effs, err := e.LeaveGroup(c.now, g)
	if err != nil {
		return err
	}
	c.route(p, effs)
	if r := c.rings[p]; r != nil {
		r.DropGroup(g)
	}
	return nil
}

// Crash stops p immediately (crash-stop): its engine receives no further
// events and its queued transmissions are lost.
func (c *Cluster) Crash(p types.ProcessID) { c.crashed[p] = true }

// Exit stops p the way a process exit does on a live host: like Crash, but
// p's sockets close, so each live link p→q carries a peer-down hint to q
// (the evidence internal/transport/tcpnet turns into an Inbound.Down)
// queued behind p's messages in flight on that link. q's engine takes it
// through Engine.Suspect. A link cut at the exit, or by the time the hint
// arrives, delivers nothing; Crash remains the host crash that leaves only
// silence for the Ω suspector.
func (c *Cluster) Exit(p types.ProcessID) {
	if c.crashed[p] {
		return
	}
	c.Crash(p)
	for _, q := range c.Processes() {
		if q == p || c.crashed[q] || c.cut[[2]types.ProcessID{p, q}] {
			continue
		}
		c.push(event{at: c.arrival(p, q), from: p, to: q, down: true})
	}
}

// CrashAfterSends arms a crash of p after it performs n more point-to-point
// transmissions — the paper's "multicast interrupted by the crash of the
// sender", leaving some destinations with the message and others without.
func (c *Cluster) CrashAfterSends(p types.ProcessID, n int) { c.armKill[p] = n }

// Disconnect cuts the bidirectional link a↔b; in-flight messages are lost.
func (c *Cluster) Disconnect(a, b types.ProcessID) {
	c.cut[[2]types.ProcessID{a, b}] = true
	c.cut[[2]types.ProcessID{b, a}] = true
}

// CutOneWay cuts only the a→b direction: messages from a to b are lost
// while b→a traffic still flows — the asymmetric loss a ring relay is
// most sensitive to (payload forwarded, acknowledgements returning).
// Reconnect(a, b) heals both directions.
func (c *Cluster) CutOneWay(a, b types.ProcessID) {
	c.cut[[2]types.ProcessID{a, b}] = true
}

// Reconnect heals the link a↔b.
func (c *Cluster) Reconnect(a, b types.ProcessID) {
	delete(c.cut, [2]types.ProcessID{a, b})
	delete(c.cut, [2]types.ProcessID{b, a})
}

// Partition splits the processes into islands, cutting every cross-island
// link and healing every intra-island link.
func (c *Cluster) Partition(islands ...[]types.ProcessID) {
	island := make(map[types.ProcessID]int)
	for i, ps := range islands {
		for _, p := range ps {
			island[p] = i + 1
		}
	}
	for a := range c.engines {
		for b := range c.engines {
			if a == b {
				continue
			}
			ia, oka := island[a]
			ib, okb := island[b]
			key := [2]types.ProcessID{a, b}
			switch {
			case oka && okb && ia == ib:
				delete(c.cut, key)
			case oka || okb:
				if !oka || !okb || ia != ib {
					c.cut[key] = true
				}
			}
		}
	}
}

// Heal removes every link cut.
func (c *Cluster) Heal() { c.cut = make(map[[2]types.ProcessID]bool) }

// At schedules fn to run at the given offset from the epoch (must not be
// in the simulated past).
func (c *Cluster) At(offset time.Duration, fn func()) {
	at := Epoch.Add(offset)
	if at.Before(c.now) {
		at = c.now
	}
	c.push(event{at: at, fn: fn})
}

// Run advances virtual time by d, dispatching every due event in
// deterministic order.
func (c *Cluster) Run(d time.Duration) {
	deadline := c.now.Add(d)
	for len(c.cal.h) > 0 {
		ev := c.cal.h[0]
		if ev.at.After(deadline) {
			break
		}
		c.cal.pop()
		if ev.at.After(c.now) {
			c.now = ev.at
		}
		c.dispatch(ev)
	}
	c.now = deadline
}

// RunUntil advances time in tick-sized steps until cond holds or the
// budget elapses; it returns whether cond held.
func (c *Cluster) RunUntil(budget time.Duration, cond func() bool) bool {
	deadline := c.now.Add(budget)
	for !cond() {
		if !c.now.Before(deadline) {
			return cond()
		}
		step := c.tickEvery
		if rem := deadline.Sub(c.now); rem < step {
			step = rem
		}
		c.Run(step)
	}
	return true
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

type event struct {
	at   time.Time
	seq  uint64 // FIFO tie-break for equal times
	from types.ProcessID
	to   types.ProcessID
	msg  *types.Message // in-flight message (codec off)
	// In codec mode the calendar holds encoded bytes, not live messages:
	// frames are marshalled at transmit time into a pooled buffer (as the
	// real transports do at enqueue) and decoded borrowed at arrival. The
	// event owns the buffer's reference until delivery or loss.
	encBuf *wire.Buf
	encLen int
	down   bool // peer-down hint from an exited sender (Exit)
	tick   bool
	fn     func()
}

func (c *Cluster) push(ev event) {
	c.seq++
	ev.seq = c.seq
	c.cal.push(ev)
}

func (c *Cluster) scheduleTick(p types.ProcessID, at time.Time) {
	c.push(event{at: at, to: p, tick: true})
}

func (c *Cluster) dispatch(ev event) {
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.tick:
		if c.crashed[ev.to] {
			return
		}
		e := c.engines[ev.to]
		c.route(ev.to, e.Tick(c.now))
		if r := c.rings[ev.to]; r != nil && !c.crashed[ev.to] {
			for _, o := range r.Tick(c.now) {
				c.transmit(ev.to, o.To, o.Msg)
			}
		}
		c.scheduleTick(ev.to, c.now.Add(c.tickEvery))
	default:
		// Message arrival: link cuts and receiver crashes apply at
		// arrival time (in-flight losses). A message already transmitted
		// by a process that crashed afterwards still arrives — crash-stop
		// interrupts future sends, not messages in flight (the paper's
		// partial multicast is modelled by CrashAfterSends).
		if c.crashed[ev.to] {
			if ev.encBuf != nil {
				ev.encBuf.Release()
			}
			return
		}
		// The receiver answers its inbound burst with prompt nulls once
		// every arrival due at this instant has been handled — the point
		// at which internal/node flushes.
		defer c.flush(ev.to)
		if c.cut[[2]types.ProcessID{ev.from, ev.to}] {
			if ev.encBuf != nil {
				ev.encBuf.Release()
			}
			return
		}
		e := c.engines[ev.to]
		if ev.down {
			// Bypasses the ring layer, as internal/node does.
			c.route(ev.to, e.Suspect(c.now, ev.from))
			return
		}
		m := ev.msg
		if ev.encBuf != nil {
			// The borrowed decode, sealed like internal/node does it:
			// decode aliasing the pooled transmit buffer, Own before the
			// engine retains it, Release (poisoning, in poison mode) after.
			dec, err := wire.UnmarshalBorrowed(ev.encBuf.Bytes()[:ev.encLen])
			if err != nil {
				ev.encBuf.Release()
				if errors.Is(err, wire.ErrTooLarge) {
					return // an over-limit payload is message loss, as on a real link
				}
				panic(fmt.Sprintf("sim: wire decode failed: %v", err))
			}
			if r := c.rings[ev.to]; r != nil {
				// Ring relay: forwarded frames alias the inbound borrowed
				// buffer; transmit re-encodes them before the Release, which
				// is the synchronous-marshal contract the real transports
				// provide at enqueue time.
				outs, delivers := r.OnReceive(c.now, ev.from, dec)
				for _, o := range outs {
					c.transmit(ev.to, o.To, o.Msg)
				}
				ev.encBuf.Release()
				for _, d := range delivers {
					if c.crashed[ev.to] {
						return
					}
					c.route(ev.to, e.HandleMessage(c.now, d.From, d.Msg))
				}
				return
			}
			dec.Own()
			ev.encBuf.Release()
			m = dec
		}
		c.route(ev.to, e.HandleMessage(c.now, ev.from, m))
	}
}

// flush calls p's Engine.Flush unless another arrival for p is due at
// this same instant: like a runtime draining its ready inbound messages
// first, the burst is answered once.
func (c *Cluster) flush(p types.ProcessID) {
	if c.crashed[p] {
		return
	}
	if len(c.cal.h) > 0 {
		next := &c.cal.h[0]
		if next.to == p && !next.tick && next.fn == nil && next.at.Equal(c.now) {
			return
		}
	}
	c.route(p, c.engines[p].Flush(c.now))
}

// route applies the effects produced by process p, honouring an armed
// crash-mid-multicast. Delivery hooks run only after the whole batch is
// routed: effs aliases the engine's reusable effects buffer, and a hook
// that reenters the engine (Submit) would clobber it mid-iteration.
func (c *Cluster) route(p types.ProcessID, effs []core.Effect) {
	var hooked []Delivery
	h := c.hist[p]
	for _, eff := range effs {
		if c.crashed[p] {
			return // crashed mid-effect-stream: remaining effects lost
		}
		switch eff := eff.(type) {
		case core.SendEffect:
			if n, armed := c.armKill[p]; armed {
				if n <= 0 {
					delete(c.armKill, p)
					c.Crash(p)
					return
				}
				c.armKill[p] = n - 1
			}
			if r := c.rings[p]; r != nil {
				for _, o := range r.OnSend(eff.To, eff.Msg) {
					c.transmit(p, o.To, o.Msg)
				}
			} else {
				c.transmit(p, eff.To, eff.Msg)
			}
		case core.DeliverEffect:
			d := Delivery{
				At:      c.now,
				Group:   eff.Msg.Group,
				Origin:  eff.Msg.Origin,
				Num:     eff.Msg.Num,
				Seq:     eff.Msg.Seq,
				View:    eff.View,
				Index:   eff.Index,
				Payload: eff.Msg.Payload,
			}
			h.Deliveries = append(h.Deliveries, d)
			h.record(Event{
				At: c.now, Kind: EvDeliver, Group: eff.Msg.Group,
				Origin: eff.Msg.Origin, Num: eff.Msg.Num, Seq: eff.Msg.Seq,
				ViewIdx: eff.View, Payload: eff.Msg.Payload,
			})
			if c.deliverHook != nil {
				hooked = append(hooked, d)
			}
		case core.ViewEffect:
			g := eff.View.Group
			h.Views[g] = append(h.Views[g], ViewChange{At: c.now, View: eff.View, Removed: eff.Removed})
			h.record(Event{At: c.now, Kind: EvView, Group: g, View: eff.View, Removed: eff.Removed})
			if r := c.rings[p]; r != nil {
				outs, delivers := r.OnViewChange(g, eff.View.Members, eff.Removed, eff.Stable)
				for _, o := range outs {
					c.transmit(p, o.To, o.Msg)
				}
				c.ringQ[p] = append(c.ringQ[p], delivers...)
			}
		case core.GroupReadyEffect:
			h.Ready = append(h.Ready, eff.Group)
			h.record(Event{At: c.now, Kind: EvReady, Group: eff.Group})
			if r := c.rings[p]; r != nil {
				// A formed group's first view may arrive without a
				// ViewEffect; seed the ring order from the engine (a pure
				// read, safe mid-batch).
				if v, err := c.engines[p].View(eff.Group); err == nil {
					outs, delivers := r.OnViewChange(eff.Group, v.Members, nil, 0)
					for _, o := range outs {
						c.transmit(p, o.To, o.Msg)
					}
					c.ringQ[p] = append(c.ringQ[p], delivers...)
				}
			}
		case core.FormationFailedEffect:
			h.Failed = append(h.Failed, eff.Group)
			h.record(Event{At: c.now, Kind: EvFormFailed, Group: eff.Group})
		case core.SuspectEffect:
			h.Suspicions = append(h.Suspicions, eff.Susp)
			h.record(Event{At: c.now, Kind: EvSuspect, Group: eff.Group, Susp: eff.Susp})
		}
	}
	c.drainRingQ(p)
	for _, d := range hooked {
		if c.crashed[p] {
			return
		}
		c.deliverHook(p, d)
	}
}

// drainRingQ feeds ring deliveries that were parked during effect routing
// into p's engine, now that the batch that produced them has been fully
// iterated. Handling one delivery may route effects that park more — the
// loop rechecks, and nested route calls drain the same shared queue.
func (c *Cluster) drainRingQ(p types.ProcessID) {
	for len(c.ringQ[p]) > 0 {
		if c.crashed[p] {
			delete(c.ringQ, p)
			return
		}
		q := c.ringQ[p]
		d := q[0]
		q[0] = ring.Delivered{}
		c.ringQ[p] = q[1:]
		if len(c.ringQ[p]) == 0 {
			delete(c.ringQ, p)
		}
		c.route(p, c.engines[p].HandleMessage(c.now, d.From, d.Msg))
	}
}

// transmit schedules the arrival of m at dest, preserving per-pair FIFO
// under randomised latency.
func (c *Cluster) transmit(from, to types.ProcessID, m *types.Message) {
	c.msgCount++
	if c.byteFn != nil {
		n := uint64(c.byteFn(m))
		c.bytes += n
		c.bytesBy[from] += n
	}
	ev := event{at: c.arrival(from, to), from: from, to: to}
	if c.codecPool != nil {
		// Encode now, inside the sender's call — the caller (a ring relay,
		// or later an arena-backed engine) may recycle or release the
		// message's payload memory the moment transmit returns.
		buf := c.codecPool.Get(wire.Size(m))
		enc := wire.Marshal(buf.Bytes()[:0], m)
		ev.encBuf, ev.encLen = buf, len(enc)
	} else {
		ev.msg = m
	}
	c.push(ev)
}

// arrival draws a latency for one transmission from→to and returns its
// arrival instant, never earlier than the link's previous arrival
// (per-pair FIFO).
func (c *Cluster) arrival(from, to types.ProcessID) time.Time {
	lat := c.latMin
	if c.latMax > c.latMin {
		lat += time.Duration(c.rng.Int63n(int64(c.latMax - c.latMin)))
	}
	arr := c.now.Add(lat)
	key := [2]types.ProcessID{from, to}
	if last := c.lastArr[key]; arr.Before(last) {
		arr = last
	}
	c.lastArr[key] = arr
	return arr
}

// calendar is a time-ordered event min-heap (FIFO on equal instants,
// via the monotone seq tie-break). It is a concrete heap with inlined
// sift-up/down — the interface-based container/heap showed up as ~25% of
// the engine-benchmark CPU profile through boxing and indirect calls.
type calendar struct {
	h []event
}

// before is the heap order: earlier instant first, FIFO on ties.
func eventBefore(a, b *event) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

func (c *calendar) push(ev event) {
	h := append(c.h, ev)
	c.h = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (c *calendar) pop() event {
	h := c.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	c.h = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && eventBefore(&h[r], &h[l]) {
			best = r
		}
		if !eventBefore(&h[best], &h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}
