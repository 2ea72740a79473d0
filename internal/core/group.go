package core

import (
	"time"

	"newtop/internal/types"
)

// groupStatus tracks a group's lifecycle at this process.
type groupStatus uint8

const (
	// statusForming: invited (or initiating), collecting formation votes
	// (§5.3 steps 1–3).
	statusForming groupStatus = iota + 1
	// statusStartWait: formation succeeded, waiting for a start-group
	// message from every member of the current view (§5.3 steps 4–5).
	// D is pinned to the largest start-number seen so far.
	statusStartWait
	// statusActive: normal operation.
	statusActive
)

// viewInstall is a scheduled update_view(F, N) (§5.2 step viii): install
// view minus failed once the last message with Num ≤ lnmn has been
// delivered. detected is when the detection was applied, the start of the
// install wait that newtop_engine_view_install_wait_ns measures.
type viewInstall struct {
	failed   map[types.ProcessID]bool
	lnmn     types.MsgNum
	detected time.Time
}

// confirmRec buffers a received confirmed message whose detection set is
// not yet a subset of our suspicions (we have not suspected all of its
// members yet); re-evaluated as suspicions grow.
type confirmRec struct {
	from      types.ProcessID
	detection []types.Suspicion
}

// heldMsg is a message from a suspected process, kept pending until the
// suspicion is refuted (reprocess) or confirmed (discard) — §5.2.
type heldMsg struct {
	from types.ProcessID
	m    *types.Message
}

// formationState tracks the two-phase formation protocol (§5.3).
type formationState struct {
	initiator bool
	members   []types.ProcessID // intended membership, sorted
	mode      OrderMode
	yes       map[types.ProcessID]bool
	votedSelf bool
	deadline  time.Time
}

// memberSlot is the per-member hot-path state of one view member, indexed
// by the member's position in view.Members. Keeping these seven quantities
// in one dense slice (instead of seven ProcessID-keyed maps) makes the
// receive path a couple of array indexings per message — the §6 "constant,
// small per-message overhead" story applied to the implementation itself.
type memberSlot struct {
	rv         types.MsgNum // receive vector entry (§4.1)
	sv         types.MsgNum // stability vector entry (§5.1)
	relayedNum types.MsgNum // highest Num seen on a sequencer relay of this origin
	seqDirect  uint64       // FIFO high-water mark, direct multicasts
	seqRelayed uint64       // FIFO high-water mark, sequencer-relayed multicasts
	lastHeard  time.Time    // failure-suspector input (§5.2)
}

// strayOrigin holds relay bookkeeping for an origin that is not (and never
// was) a member of the current view. Honest traffic never references such
// origins — the sender of every accepted message is a view member, and a
// relay of a removed member is discarded — so this map stays nil except
// under hostile/fuzzed input, where it preserves the exact duplicate/gap
// semantics the per-origin maps used to give.
type strayOrigin struct {
	seqRelayed uint64
	relayedNum types.MsgNum
}

// groupState is the per-group protocol state of one process: its view,
// receive/stability vectors, message log, membership-agreement state and
// ordering-mode bookkeeping.
type groupState struct {
	id     types.GroupID
	mode   OrderMode
	status groupStatus
	view   types.View

	// staticD selects the §4.2 failure-free delivery gate for asymmetric
	// groups (D = last number from the sequencer); see dx.
	staticD bool

	// mem is the dense per-member state, parallel to view.Members;
	// rebuilt on every view installation (rare) so the receive path
	// (every message) indexes instead of hashing.
	mem []memberSlot

	// Incrementally maintained delivery/stability gates: rvMin is
	// min(RV) over the view, svMin is min(SV), each with a count of the
	// members currently sitting at the minimum. A bump away from the
	// minimum decrements the count; only when it hits zero is the O(n)
	// rescan paid. Both are monotone non-decreasing between view
	// installations (RV/SV entries only ever grow), which is what makes
	// the counting scheme sound.
	rvMin    types.MsgNum
	rvMinCnt int
	svMin    types.MsgNum
	svMinCnt int

	strays map[types.ProcessID]*strayOrigin // lazily allocated, see strayOrigin

	lastSent time.Time // time-silence input (§4.1)

	// owedNum is the highest number of a peer's data message this member
	// has received in a symmetric group; while it is above the member's
	// own last number, the member owes the group a prompt null (see
	// Engine.Flush). Nulls never raise it, so nulls cannot ping-pong.
	owedNum types.MsgNum

	mySeq    uint64 // seq counter for my direct multicasts
	myReqSeq uint64 // seq counter for my sequencer requests (asymmetric)

	log *msgLog

	// arena recycles the structs of this group's own outbound data-plane
	// messages (Config.MessageArena); nil when disabled. Lazily created
	// on first transmit — see Engine.arenaFor.
	arena *msgArena

	// dFloor is a lower bound on Dx: the start-number-max agreed at
	// group formation (§5.3 step 5). Nulls numbered below it may still
	// arrive but are never delivered, so the floor is safe.
	dFloor types.MsgNum
	// startPin pins Dx while status == statusStartWait.
	startPin  types.MsgNum
	startNums map[types.ProcessID]types.MsgNum

	// Membership agreement (§5.2).
	suspicions      map[types.ProcessID]types.MsgNum // my active suspicions: proc → ln
	votes           map[types.Suspicion]map[types.ProcessID]bool
	held            map[types.ProcessID][]heldMsg
	pendingConfirms []confirmRec
	installs        []viewInstall
	removed         []types.ProcessID // ever-removed processes, sorted

	formation *formationState

	// delivered counts application deliveries emitted for this group —
	// the next DeliverEffect carries this value as its stream index.
	// Every member delivers the same messages in the same order, so the
	// counter advances identically fleet-wide and (group, delivered) is a
	// stable cross-process address: the types.LogPos the replication and
	// durability layers key on.
	delivered uint64

	// Asymmetric mode (§4.2).
	pendingReqs []*types.Message // my unsequenced requests, in unicast order
}

func newGroupState(id types.GroupID, mode OrderMode) *groupState {
	return &groupState{
		id:         id,
		mode:       mode,
		log:        newMsgLog(),
		suspicions: make(map[types.ProcessID]types.MsgNum),
		votes:      make(map[types.Suspicion]map[types.ProcessID]bool),
		held:       make(map[types.ProcessID][]heldMsg),
		startNums:  make(map[types.ProcessID]types.MsgNum),
	}
}

// activate installs the initial view V0 and primes the vectors.
func (g *groupState) activate(members []types.ProcessID, now time.Time, signatures bool) {
	g.view = types.NewView(g.id, 0, members)
	if signatures {
		g.view.Excluded = make([]int, len(g.view.Members))
	}
	n := len(g.view.Members)
	g.mem = make([]memberSlot, n)
	for i := range g.mem {
		g.mem[i].lastHeard = now
	}
	g.rvMin, g.rvMinCnt = 0, n
	g.svMin, g.svMinCnt = 0, n
	g.lastSent = now
}

// memberIndex returns the position of p in view.Members (the index into
// mem), or -1 when p is not a current member. The members slice is sorted,
// so this is a branch-free binary search — no hashing on the hot path.
func (g *groupState) memberIndex(p types.ProcessID) int {
	ms := g.view.Members
	if len(ms) <= 8 {
		for i, q := range ms {
			if q == p {
				return i
			}
			if q > p {
				return -1
			}
		}
		return -1
	}
	lo, hi := 0, len(ms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ms[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ms) && ms[lo] == p {
		return lo
	}
	return -1
}

// heardFromAll reports whether this process has received at least one
// data-plane message from every view member other than the one at index
// self (every such receive-vector entry is above zero).
func (g *groupState) heardFromAll(self int) bool {
	for i := range g.mem {
		if i != self && g.mem[i].rv == 0 {
			return false
		}
	}
	return true
}

// isRemoved reports whether p was ever excluded from a view of this group.
func (g *groupState) isRemoved(p types.ProcessID) bool {
	rs := g.removed
	if len(rs) == 0 {
		return false
	}
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(rs) && rs[lo] == p
}

// markRemoved records p as ever-excluded (idempotent, keeps order).
func (g *groupState) markRemoved(p types.ProcessID) {
	rs := g.removed
	i := 0
	for i < len(rs) && rs[i] < p {
		i++
	}
	if i < len(rs) && rs[i] == p {
		return
	}
	rs = append(rs, 0)
	copy(rs[i+1:], rs[i:])
	rs[i] = p
	g.removed = rs
}

// stray returns (allocating on first use) the relay bookkeeping for a
// non-member origin. Only hostile traffic reaches here; see strayOrigin.
func (g *groupState) stray(p types.ProcessID) *strayOrigin {
	if s, ok := g.strays[p]; ok {
		return s
	}
	if g.strays == nil {
		g.strays = make(map[types.ProcessID]*strayOrigin)
	}
	s := &strayOrigin{}
	g.strays[p] = s
	return s
}

// bumpRV raises member i's receive-vector entry to num (no-op if not an
// increase) and maintains the cached min(RV). Reports whether min(RV)
// advanced — i.e. the delivery gate D_x may have moved.
func (g *groupState) bumpRV(i int, num types.MsgNum) bool {
	s := &g.mem[i]
	if num <= s.rv {
		return false
	}
	old := s.rv
	s.rv = num
	if old != g.rvMin {
		return false
	}
	if g.rvMinCnt--; g.rvMinCnt > 0 {
		return false
	}
	min, cnt := types.InfNum, 0
	for j := range g.mem {
		switch v := g.mem[j].rv; {
		case v < min:
			min, cnt = v, 1
		case v == min:
			cnt++
		}
	}
	g.rvMin, g.rvMinCnt = min, cnt
	return true
}

// bumpSV raises member i's stability-vector entry to ldn and maintains the
// cached min(SV). Reports whether min(SV) — the stability threshold —
// advanced.
func (g *groupState) bumpSV(i int, ldn types.MsgNum) bool {
	s := &g.mem[i]
	if ldn <= s.sv {
		return false
	}
	old := s.sv
	s.sv = ldn
	if old != g.svMin {
		return false
	}
	if g.svMinCnt--; g.svMinCnt > 0 {
		return false
	}
	min, cnt := types.InfNum, 0
	for j := range g.mem {
		switch v := g.mem[j].sv; {
		case v < min:
			min, cnt = v, 1
		case v == min:
			cnt++
		}
	}
	g.svMin, g.svMinCnt = min, cnt
	return true
}

// recomputeMins rescans both cached minima (used after a view rebuild).
func (g *groupState) recomputeMins() {
	rvMin, rvCnt := types.InfNum, 0
	svMin, svCnt := types.InfNum, 0
	for i := range g.mem {
		switch v := g.mem[i].rv; {
		case v < rvMin:
			rvMin, rvCnt = v, 1
		case v == rvMin:
			rvCnt++
		}
		switch v := g.mem[i].sv; {
		case v < svMin:
			svMin, svCnt = v, 1
		case v == svMin:
			svCnt++
		}
	}
	if len(g.mem) == 0 {
		rvMin, svMin = 0, 0
	}
	g.rvMin, g.rvMinCnt = rvMin, rvCnt
	g.svMin, g.svMinCnt = svMin, svCnt
}

// rebuildMem remaps the dense member state after a view installation: the
// new view is a subset of the old one, both sorted, so surviving slots are
// copied positionally and the minima recomputed once.
func (g *groupState) rebuildMem(oldMembers []types.ProcessID, oldMem []memberSlot) {
	mem := make([]memberSlot, len(g.view.Members))
	j := 0
	for i, p := range g.view.Members {
		for j < len(oldMembers) && oldMembers[j] != p {
			j++
		}
		if j < len(oldMembers) {
			mem[i] = oldMem[j]
			j++
		}
	}
	g.mem = mem
	g.recomputeMins()
}

// sequencer returns the asymmetric-mode sequencer for the current view:
// the lowest-numbered member. Processes with identical views elect the same
// sequencer deterministically (§4.2).
func (g *groupState) sequencer() types.ProcessID {
	if len(g.view.Members) == 0 {
		return types.NilProcess
	}
	return g.view.Members[0]
}

// dx returns this group's largest-deliverable-number D_x (§4.1/§4.2).
//
// In the static failure-free configuration, an asymmetric group uses the
// paper's §4.2 rule — D_x is the number of the last message received from
// the sequencer, so sequenced messages deliver immediately. In the
// fault-tolerant configuration D_x is min(RV) for every mode: the §5.2
// agreement boundary is only consistent because no process can deliver a
// number beyond a silent member's last message ("absent or rejected
// messages from suspected processes prevent D from increasing beyond
// lnmn"), and that argument needs D ≤ RV[k] pointwise. Universal
// time-silence (which §5 mandates in every group precisely for failure
// detection) keeps min(RV) advancing, so asymmetric delivery stays live —
// the sequencer contributes ordering economy, min(RV) the safety boundary.
//
// min(RV) is maintained incrementally (see bumpRV), so dx is O(1).
func (g *groupState) dx() types.MsgNum {
	if g.status == statusStartWait {
		return g.startPin
	}
	var d types.MsgNum
	if g.mode == Asymmetric && g.staticD {
		if len(g.mem) > 0 {
			d = g.mem[0].rv // sequencer = lowest-numbered = Members[0]
		}
	} else {
		d = g.rvMin
		if len(g.view.Members) == 0 {
			d = 0
		}
	}
	if d < g.dFloor {
		d = g.dFloor
	}
	return d
}

// minSV returns the stability threshold: every message with Num ≤ minSV
// has been received by all members of the current view (§5.1). O(1) via
// the incrementally maintained cache (see bumpSV).
func (g *groupState) minSV() types.MsgNum {
	if len(g.view.Members) == 0 {
		return 0
	}
	return g.svMin
}

// knownNum returns the highest Lamport number this process has witnessed
// from p in this group, over both the direct path (rv) and sequencer
// relays of p's messages. It is the ln used when suspecting p and the
// evidence threshold when judging others' suspicions of p.
func (g *groupState) knownNum(p types.ProcessID) types.MsgNum {
	var n, r types.MsgNum
	if i := g.memberIndex(p); i >= 0 {
		n, r = g.mem[i].rv, g.mem[i].relayedNum
	} else if s, ok := g.strays[p]; ok {
		r = s.relayedNum
	}
	if n == types.InfNum {
		return n
	}
	if r > n {
		n = r
	}
	return n
}

// ordered reports whether the group gates delivery on the logical-clock
// condition safe1' (total order); atomic groups bypass the gate (fig. 3).
func (g *groupState) ordered() bool { return g.mode == Symmetric || g.mode == Asymmetric }

// runsTimeSilence reports whether this process operates the time-silence
// mechanism in this group. With failure detection on (dynamic Newtop, §5)
// every member does; in the static failure-free configuration only
// symmetric members and the asymmetric sequencer need it (§4).
func (g *groupState) runsTimeSilence(self types.ProcessID, failureDetection bool) bool {
	if g.status != statusActive && g.status != statusStartWait {
		return false
	}
	if failureDetection {
		return true
	}
	switch g.mode {
	case Symmetric:
		return true
	case Asymmetric:
		return g.sequencer() == self
	default:
		return false
	}
}
