// Package core implements the Newtop protocol state machine (Ezhilchelvan,
// Macêdo, Shrivastava — ICDCS 1995): causality-preserving total-order
// multicast for overlapping process groups with symmetric (§4.1),
// asymmetric (§4.2) and mixed (§4.3) ordering, message stability (§5.1), a
// partitionable membership service with suspect/refute/confirm agreement
// and view installation (§5.2), and dynamic group formation (§5.3).
//
// The Engine is a pure, single-threaded state machine: every stimulus
// (received message, timer tick, application call) enters through a method
// that returns the resulting effects (transmissions, deliveries, view
// installations). The engine never blocks, sleeps or touches a socket;
// runtimes (internal/node, internal/sim) own concurrency and I/O. This
// makes every protocol behaviour deterministic and unit-testable.
package core

import (
	"errors"
	"fmt"
	"time"

	"newtop/internal/lclock"
	"newtop/internal/obs"
	"newtop/internal/types"
)

// Engine errors.
var (
	// ErrUnknownGroup is returned for operations on groups this process
	// is not a member of.
	ErrUnknownGroup = errors.New("core: not a member of group")
	// ErrGroupExists is returned when creating a group with an ID
	// already in use at this process.
	ErrGroupExists = errors.New("core: group already exists")
	// ErrLeftGroup is returned for operations on a group this process
	// has departed. Processes never rejoin a group (§3); form a new one.
	ErrLeftGroup = errors.New("core: group was departed")
	// ErrDuplicateView is returned by CreateGroup when an existing group
	// already has exactly the proposed membership (§5.3: "Pi must not be
	// a member of any gx such that Vx,i = gn").
	ErrDuplicateView = errors.New("core: a group with identical membership exists")
	// ErrBadMembers is returned when a group's member list is invalid.
	ErrBadMembers = errors.New("core: invalid member list")
)

// preBuffered bounds how many messages are buffered for a group that is
// still forming locally (traffic from members that activated earlier).
const preBuffered = 4096

// Engine is the Newtop protocol state machine for one process. Not safe
// for concurrent use — wrap it in a runtime.
type Engine struct {
	cfg    Config
	lc     lclock.Clock
	groups map[types.GroupID]*groupState
	left   map[types.GroupID]bool
	pre    map[types.GroupID][]heldMsg // messages for groups still forming here
	queue  *deliveryQueue
	stats  Stats
	effs   []Effect

	// gD caches globalD (the cross-group delivery gate); every mutation
	// that can move any group's D_x clears gDValid (see globalD).
	gD      types.MsgNum
	gDValid bool

	// glist caches the id-sorted group list used by Tick and the pump;
	// rebuilt (glistDirty) only when the group set changes.
	glist      []*groupState
	glistDirty bool

	// queued holds application submits delayed by the blocking rules,
	// flow control or an incomplete formation. It is a single FIFO across
	// all groups: a process's submit order is part of the happened-before
	// relation (same-process event order), so a later submit in another
	// group must never overtake an earlier queued one — otherwise the
	// later message would be numbered first and delivered first,
	// violating MD4'/MD5'.
	queued []queuedSubmit

	// owing is set when some symmetric group may owe a prompt null; Flush
	// clears it. It keeps the Flush that follows every inbound burst free
	// when nothing was received.
	owing bool

	// om holds the resolved observability handles (all nil without
	// Config.Metrics); tracer is the sampled lifecycle tracer (may be nil).
	om     engMetrics
	tracer *obs.Tracer
}

// queuedSubmit is one delayed application multicast.
type queuedSubmit struct {
	g       types.GroupID
	payload []byte
}

// NewEngine creates an engine for the given process configuration.
func NewEngine(cfg Config) *Engine {
	return &Engine{
		cfg:    cfg.withDefaults(),
		groups: make(map[types.GroupID]*groupState),
		left:   make(map[types.GroupID]bool),
		pre:    make(map[types.GroupID][]heldMsg),
		queue:  newDeliveryQueue(),
		om:     newEngMetrics(cfg.Metrics),
		tracer: cfg.Tracer,
	}
}

// Self returns this process's identifier.
func (e *Engine) Self() types.ProcessID { return e.cfg.Self }

// Omega returns the effective time-silence interval ω.
func (e *Engine) Omega() time.Duration { return e.cfg.Omega }

// Stats returns a snapshot of the protocol counters.
func (e *Engine) Stats() Stats { return e.stats }

// Clock returns the current Lamport clock value (diagnostics).
func (e *Engine) Clock() types.MsgNum { return e.lc.Now() }

// View returns the current membership view for g.
func (e *Engine) View(g types.GroupID) (types.View, error) {
	gs, ok := e.groups[g]
	if !ok {
		if e.left[g] {
			return types.View{}, ErrLeftGroup
		}
		return types.View{}, fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	return gs.view.Clone(), nil
}

// Groups returns the IDs of the groups this process is currently a member
// of (including ones still forming), sorted.
func (e *Engine) Groups() []types.GroupID {
	gss := e.sortedGroups()
	out := make([]types.GroupID, len(gss))
	for i, gs := range gss {
		out[i] = gs.id
	}
	return out
}

// GroupReady reports whether g is active (formation complete, sends open).
func (e *Engine) GroupReady(g types.GroupID) bool {
	gs, ok := e.groups[g]
	return ok && gs.status == statusActive
}

// PendingDeliveries returns the number of received-but-undelivered
// application messages (diagnostics).
func (e *Engine) PendingDeliveries() int { return e.queue.Len() }

// LogSize returns the number of messages retained for recovery in group g
// (unstable messages, §5.1); 0 for unknown groups. Diagnostics.
func (e *Engine) LogSize(g types.GroupID) int {
	if gs, ok := e.groups[g]; ok {
		return gs.log.len()
	}
	return 0
}

// QueuedSubmits returns the number of application sends queued behind the
// blocking rules, flow control or formation for group g.
func (e *Engine) QueuedSubmits(g types.GroupID) int {
	n := 0
	for _, q := range e.queued {
		if q.g == g {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Event entry points
// ---------------------------------------------------------------------------

// BootstrapGroup installs group g with initial view V0 = members and begins
// normal operation immediately. Every member must bootstrap the same group
// with the same member list and mode — this models §4's statically formed
// groups, where "each functioning Pi installs an initial view V0". Use
// CreateGroup for the dynamic §5.3 formation protocol.
func (e *Engine) BootstrapGroup(now time.Time, g types.GroupID, mode OrderMode, members []types.ProcessID) ([]Effect, error) {
	e.begin()
	if err := e.checkNewGroup(g, members); err != nil {
		return nil, err
	}
	gs := newGroupState(g, mode)
	gs.staticD = e.cfg.DisableFailureDetection
	gs.status = statusActive
	gs.activate(members, now, e.cfg.SignatureViews)
	e.groups[g] = gs
	e.groupsChanged()
	e.emit(ViewEffect{View: gs.view.Clone()}) // install V0 (§3)
	e.replayPre(now, g)
	return e.finish(now), nil
}

// CreateGroup initiates the dynamic formation of group g (§5.3) with this
// process as coordinator. The intended membership must include self.
// Formation succeeds when every intended member votes yes; the group is
// open for sends once a GroupReadyEffect is emitted.
func (e *Engine) CreateGroup(now time.Time, g types.GroupID, mode OrderMode, members []types.ProcessID) ([]Effect, error) {
	e.begin()
	if err := e.checkNewGroup(g, members); err != nil {
		return nil, err
	}
	gs := newGroupState(g, mode)
	gs.staticD = e.cfg.DisableFailureDetection
	gs.status = statusForming
	sorted := types.NewView(g, 0, members).Members
	gs.formation = &formationState{
		initiator: true,
		members:   sorted,
		mode:      mode,
		yes:       make(map[types.ProcessID]bool),
		deadline:  now.Add(e.cfg.FormationTimeout),
	}
	e.groups[g] = gs
	e.groupsChanged()
	invite := &types.Message{
		Kind: types.KindFormInvite, Group: g, Sender: e.cfg.Self, Origin: e.cfg.Self,
		Invite: sorted, Payload: []byte{byte(mode)},
	}
	for _, p := range sorted {
		if p != e.cfg.Self {
			e.send(p, invite)
		}
	}
	e.stats.CtrlSent++
	return e.finish(now), nil
}

// LeaveGroup departs group g voluntarily. The process stops participating;
// remaining members detect the silence and agree to exclude it (§3: a
// departed process maintains no view and never rejoins).
func (e *Engine) LeaveGroup(now time.Time, g types.GroupID) ([]Effect, error) {
	e.begin()
	gs, ok := e.groups[g]
	if !ok {
		if e.left[g] {
			return nil, ErrLeftGroup
		}
		return nil, fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	// Drop this group's undelivered messages: departure ends the
	// membership, and MD2 only promises delivery while the process
	// "continues to function as a member".
	before := e.queue.Len()
	e.queue.Discard(func(m *types.Message) bool { return m.Group == g })
	e.om.dropLeftGroup.Add(uint64(before - e.queue.Len()))
	delete(e.groups, g)
	e.groupsChanged()
	e.left[g] = true
	_ = gs
	return e.finish(now), nil
}

// Submit multicasts payload in group g with the group's configured
// ordering. The send may be queued internally by the §4.2/§4.3 blocking
// rules, by flow control, or by an incomplete formation; queued sends are
// transmitted automatically once unblocked, preserving per-group order.
func (e *Engine) Submit(now time.Time, g types.GroupID, payload []byte) ([]Effect, error) {
	e.begin()
	gs, ok := e.groups[g]
	if !ok {
		if e.left[g] {
			return nil, ErrLeftGroup
		}
		return nil, fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	reason := e.submitBlock(gs)
	if len(e.queued) > 0 || reason != blockNone {
		switch reason {
		case blockRule:
			e.stats.BlockedSends++
		case blockFlow:
			e.stats.FlowBlocked++
		}
		e.queued = append(e.queued, queuedSubmit{g: g, payload: payload})
		return e.finish(now), nil
	}
	e.transmit(now, gs, payload)
	return e.finish(now), nil
}

// HandleMessage processes one received message. from is the
// transport-authenticated sender.
func (e *Engine) HandleMessage(now time.Time, from types.ProcessID, m *types.Message) []Effect {
	e.begin()
	e.handleMessage(now, from, m)
	return e.finish(now)
}

// Tick drives the timeout machinery: time-silence null messages (§4.1),
// failure suspicion (§5.2) and formation deadlines (§5.3). Runtimes call
// it at least every ω/2.
func (e *Engine) Tick(now time.Time) []Effect {
	e.begin()
	for _, g := range e.sortedGroups() {
		e.tickGroup(now, g)
	}
	return e.finish(now)
}

// Suspect is the failure suspector's second input (§5.2 step i): the
// runtime has transport evidence that p's process is gone (its connection
// closed and a redial was refused), so p is suspected now in every active
// or starting group whose view holds it, instead of after Ω of silence.
// The GV agreement tolerates a wrong hint — a live member suspected by
// mistake is excluded consistently — so the hint risks availability,
// never safety. It is a no-op for self, non-members, already-suspected or
// removed members, and when failure detection is disabled.
func (e *Engine) Suspect(now time.Time, p types.ProcessID) []Effect {
	e.begin()
	if !e.cfg.DisableFailureDetection && p != e.cfg.Self {
		for _, gs := range e.sortedGroups() {
			if gs.status != statusActive && gs.status != statusStartWait {
				continue
			}
			if _, suspected := gs.suspicions[p]; suspected || gs.isRemoved(p) || !gs.view.Contains(p) {
				continue
			}
			e.om.suspectPeerDown.Inc()
			e.raiseSuspicion(now, gs, p)
		}
	}
	return e.finish(now)
}

// Flush multicasts one prompt null in every active symmetric group where
// this process has received a peer's data message numbered above its own
// last message. Symmetric delivery of m waits until every member has sent
// something numbered above m (§4.1); a quiet member would otherwise supply
// that only with its time-silence null, up to ω + ω/2 later. ω bounds how
// long a member may stay silent, so answering earlier is always allowed.
//
// Runtimes call Flush once they have handled the inbound messages that
// were ready, so one null answers a whole burst. HandleMessage never
// answers data itself, which keeps the receive path allocation-free.
//
// A member answers only once it has heard from every other member of the
// view. Until then the group is still starting and a peer may not be
// listening yet: a null the peer misses leaves a gap in this member's
// sequence, which the peer takes for a transport loss and answers with a
// suspicion (onDataPlane). Time-silence paces that first round; the debt
// is paid at the first Flush after the last member is heard from.
//
// A membership detection also triggers a null, without waiting for Flush:
// a member whose own last number is below the agreed cutoff lnmn sends one
// as it applies the detection (§5.2 step viii), so no peer's view install
// waits for this member's time-silence.
func (e *Engine) Flush(now time.Time) []Effect {
	if !e.owing {
		return nil
	}
	e.begin()
	e.owing = false
	for _, gs := range e.sortedGroups() {
		// Only active symmetric groups record a debt (onDataPlane).
		self := gs.memberIndex(e.cfg.Self)
		if self < 0 || gs.owedNum <= gs.mem[self].rv {
			continue
		}
		if !gs.heardFromAll(self) {
			e.owing = true
			continue
		}
		e.sendNull(now, gs)
	}
	return e.finish(now)
}

// ---------------------------------------------------------------------------
// Internals: effects plumbing
// ---------------------------------------------------------------------------

// begin starts a stimulus, reusing the effects buffer: the slice returned
// by the previous finish is only valid until the next engine call. Every
// runtime (sim, node) consumes effects synchronously before re-entering
// the engine, so the reuse is invisible there; external callers must copy
// if they retain effects across calls.
//
// The same contract is what makes arena promotion safe here: slots graced
// during the previous stimulus can no longer be referenced by anything
// outside the engine once the next stimulus begins.
func (e *Engine) begin() {
	e.effs = e.effs[:0]
	if e.cfg.MessageArena {
		for _, gs := range e.groups {
			if gs.arena != nil {
				gs.arena.promote()
			}
		}
	}
}

// arenaFor returns gs's message arena, creating it (and installing the
// log's release hook) on first use; nil when Config.MessageArena is off.
func (e *Engine) arenaFor(gs *groupState) *msgArena {
	if !e.cfg.MessageArena {
		return nil
	}
	if gs.arena == nil {
		gs.arena = newMsgArena()
		gs.log.onDrop = gs.arena.clearLogged
	}
	return gs.arena
}

func (e *Engine) finish(now time.Time) []Effect {
	e.pump(now)
	e.drainQueued(now)
	if e.om.enabled() {
		e.om.queueDepth.Set(int64(e.queue.Len()))
		var live, grace, logged int
		for _, gs := range e.groups {
			if gs.arena != nil {
				live += gs.arena.live()
				grace += len(gs.arena.grace)
			}
			logged += gs.log.len()
		}
		e.om.arenaLive.Set(int64(live))
		e.om.arenaGrace.Set(int64(grace))
		e.om.logSize.Set(int64(logged))
	}
	return e.effs
}

func (e *Engine) emit(eff Effect) { e.effs = append(e.effs, eff) }

// send emits a unicast SendEffect.
func (e *Engine) send(to types.ProcessID, m *types.Message) {
	e.stats.MsgsSent++
	e.emit(SendEffect{To: to, Msg: m})
}

// mcast emits SendEffects to every view member except self.
func (e *Engine) mcast(gs *groupState, m *types.Message) {
	for _, p := range gs.view.Members {
		if p != e.cfg.Self {
			e.send(p, m)
		}
	}
}

// mcastTo emits SendEffects to an explicit destination list except self.
func (e *Engine) mcastTo(dests []types.ProcessID, m *types.Message) {
	for _, p := range dests {
		if p != e.cfg.Self {
			e.send(p, m)
		}
	}
}

// sortedGroups returns the id-sorted group list. The list is cached and
// rebuilt only when the group set changed (groupsChanged), so the pump —
// which consults it on every stimulus — allocates nothing. Callers must
// not mutate the returned slice; a rebuild always allocates fresh backing,
// so snapshots held across a group add/remove stay intact.
func (e *Engine) sortedGroups() []*groupState {
	if e.glistDirty {
		out := make([]*groupState, 0, len(e.groups))
		for _, gs := range e.groups {
			out = append(out, gs)
		}
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].id < out[j-1].id; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		e.glist = out
		e.glistDirty = false
	}
	return e.glist
}

// groupsChanged invalidates the caches derived from the group set: the
// sorted group list and the cross-group delivery gate.
func (e *Engine) groupsChanged() {
	e.glistDirty = true
	e.gDValid = false
}

func (e *Engine) checkNewGroup(g types.GroupID, members []types.ProcessID) error {
	if _, ok := e.groups[g]; ok {
		return fmt.Errorf("%w: %v", ErrGroupExists, g)
	}
	if e.left[g] {
		return ErrLeftGroup
	}
	if len(members) == 0 {
		return fmt.Errorf("%w: empty", ErrBadMembers)
	}
	proposed := types.NewView(g, 0, members)
	if !proposed.Contains(e.cfg.Self) {
		return fmt.Errorf("%w: self %v not in member list", ErrBadMembers, e.cfg.Self)
	}
	for _, gs := range e.groups {
		if gs.view.SameMembers(proposed) && gs.status == statusActive {
			return fmt.Errorf("%w: %v", ErrDuplicateView, gs.id)
		}
	}
	return nil
}

// replayPre reprocesses messages that arrived for g before it existed
// locally (members that activated earlier are ahead of us).
func (e *Engine) replayPre(now time.Time, g types.GroupID) {
	buf := e.pre[g]
	delete(e.pre, g)
	for _, h := range buf {
		e.handleMessage(now, h.from, h.m)
	}
}
