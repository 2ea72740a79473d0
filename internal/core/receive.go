package core

import (
	"time"

	"newtop/internal/obs"
	"newtop/internal/types"
)

// handleMessage is the internal receive path (also used for loopback and
// for replaying held/recovered/buffered messages).
func (e *Engine) handleMessage(now time.Time, from types.ProcessID, m *types.Message) {
	switch m.Kind {
	case types.KindFormInvite:
		e.onFormInvite(now, from, m)
		return
	case types.KindFormVote:
		// A vote can outrun the invitation that explains it; buffer it
		// until the invite creates the forming state.
		if _, ok := e.groups[m.Group]; !ok && !e.left[m.Group] {
			if len(e.pre[m.Group]) < preBuffered {
				e.pre[m.Group] = append(e.pre[m.Group], heldMsg{from: from, m: m})
			} else {
				e.om.dropPreOverflow.Inc()
			}
			return
		}
		e.onFormVote(now, from, m)
		return
	}

	gs, ok := e.groups[m.Group]
	if !ok {
		if e.left[m.Group] {
			e.om.dropLeftGroup.Inc()
			return // departed: maintain no state for this group (§3)
		}
		// The group may be forming here while a faster member already
		// activated: buffer until activation.
		if len(e.pre[m.Group]) < preBuffered {
			e.pre[m.Group] = append(e.pre[m.Group], heldMsg{from: from, m: m})
		} else {
			e.om.dropPreOverflow.Inc()
		}
		return
	}
	if gs.status == statusForming {
		// Formation votes are handled above; protocol traffic for a
		// still-forming group waits for activation.
		if len(e.pre[m.Group]) < preBuffered {
			e.pre[m.Group] = append(e.pre[m.Group], heldMsg{from: from, m: m})
		} else {
			e.om.dropPreOverflow.Inc()
		}
		return
	}
	// Traffic from processes already excluded from the view is discarded
	// (§5.2: "Pi discards any messages received from Pk and GVk, if
	// either Pk ∈ failed or Pk ∉ Vi"). A sequencer relay whose origin was
	// excluded is equally dead: its content is a removed member's
	// message.
	if gs.isRemoved(m.Sender) || gs.isRemoved(m.Origin) {
		e.om.dropRemoved.Inc()
		return
	}
	si := gs.memberIndex(m.Sender)
	if si < 0 {
		e.om.dropNotMember.Inc()
		return
	}
	// Messages from currently suspected processes are kept pending until
	// the suspicion is refuted or confirmed (§5.2).
	if _, suspected := gs.suspicions[m.Sender]; suspected && m.Sender != e.cfg.Self {
		gs.held[m.Sender] = append(gs.held[m.Sender], heldMsg{from: from, m: m})
		return
	}

	switch m.Kind {
	case types.KindData, types.KindNull, types.KindStartGroup:
		e.onDataPlane(now, gs, si, m)
	case types.KindSeqRequest:
		e.onSeqRequest(now, gs, si, m)
	case types.KindSuspect:
		e.onSuspect(now, gs, from, m)
	case types.KindRefute:
		e.onRefute(now, gs, from, m)
	case types.KindConfirmed:
		e.onConfirmed(now, gs, from, m)
	}
}

// onDataPlane processes a numbered (data-plane) message: CA2 clock
// witness, receive-vector and stability bookkeeping, then kind dispatch.
// si is the sender's member index (see memberIndex); the caller has
// already verified membership.
func (e *Engine) onDataPlane(now time.Time, gs *groupState, si int, m *types.Message) {
	// Refutation by receipt (§5.2 step iii): a message from m.Sender
	// numbered above a gossiped suspicion's ln disproves that suspicion.
	e.refuteGossip(now, gs, m.Sender, m.Num)

	// Per-origin FIFO handling, split by path (direct vs sequencer-
	// relayed). Duplicates (e.g. a recovered copy of a message we already
	// accepted) are dropped. A sequence gap means the transport lost a
	// message (a cut shorter than the suspicion timeout): the gapped
	// message is dropped without bookkeeping and the sender is suspected
	// immediately, so the missing prefix is recovered through a refute
	// piggyback — gaps heal via the membership machinery, never by
	// reordering.
	direct := m.Sender == m.Origin
	oi := si // origin's member index; differs from si only on relays
	if direct {
		slot := &gs.mem[si]
		if m.Seq <= slot.seqDirect {
			return // duplicate
		}
		if m.Seq != slot.seqDirect+1 {
			e.stats.Gaps++
			e.om.dropSeqGap.Inc()
			e.raiseSuspicion(now, gs, m.Sender)
			return
		}
		slot.seqDirect = m.Seq
	} else if oi = gs.memberIndex(m.Origin); oi >= 0 {
		slot := &gs.mem[oi]
		if m.Seq <= slot.seqRelayed {
			return
		}
		if m.Seq != slot.seqRelayed+1 {
			e.stats.Gaps++
			e.om.dropSeqGap.Inc()
			e.raiseSuspicion(now, gs, m.Sender)
			return
		}
		slot.seqRelayed = m.Seq
	} else {
		// Relay of an origin outside the view: hostile traffic; the
		// overflow record preserves the map-era duplicate/gap semantics.
		st := gs.stray(m.Origin)
		if m.Seq <= st.seqRelayed {
			return
		}
		if m.Seq != st.seqRelayed+1 {
			e.stats.Gaps++
			e.om.dropSeqGap.Inc()
			e.raiseSuspicion(now, gs, m.Sender)
			return
		}
		st.seqRelayed = m.Seq
	}

	e.lc.Witness(m.Num) // CA2
	if gs.bumpRV(si, m.Num) || (gs.staticD && gs.mode == Asymmetric && si == 0) {
		e.gDValid = false // the delivery gate D_x moved
	}
	gs.mem[si].lastHeard = now
	gs.bumpSV(si, m.LDN)

	gs.log.add(m)

	switch m.Kind {
	case types.KindData:
		if !direct {
			if oi >= 0 {
				if m.Num > gs.mem[oi].relayedNum {
					gs.mem[oi].relayedNum = m.Num
				}
			} else if st := gs.stray(m.Origin); m.Num > st.relayedNum {
				st.relayedNum = m.Num
			}
			// A relay numbered above a gossiped suspicion of its origin
			// raises the evidence threshold for that origin too.
			e.refuteGossip(now, gs, m.Origin, m.Num)
			if m.Origin == e.cfg.Self {
				e.ackOwnRequest(gs, m.Seq)
			}
		} else if m.Sender != e.cfg.Self && gs.mode == Symmetric && gs.status == statusActive && m.Num > gs.owedNum {
			// A peer's data: this member owes the group a prompt null
			// (Flush) until its own next message is numbered above m.
			gs.owedNum = m.Num
			e.owing = true
		}
		if e.tracer.Sampled(m.Num) {
			key := obs.TraceKey{Group: m.Group, Origin: m.Origin, Num: m.Num}
			e.tracer.StampIf(key, obs.StageReceive, now)
			if gs.ordered() {
				e.tracer.StampIf(key, obs.StageOrdered, now)
			}
		}
		if gs.ordered() {
			e.queue.Push(m)
		} else {
			// Atomic mode bypasses the logical-clock gate (fig. 3):
			// deliver on receipt, in per-sender FIFO order.
			e.stats.Delivered++
			e.om.delivered.Inc()
			e.tracer.StampIf(obs.TraceKey{Group: m.Group, Origin: m.Origin, Num: m.Num}, obs.StageDelivered, now)
			e.emit(DeliverEffect{Msg: m, View: gs.view.Index, Index: gs.delivered})
			gs.delivered++
		}
	case types.KindNull:
		e.stats.NullsDropped++
	case types.KindStartGroup:
		e.onStartGroup(now, gs, m)
	}

	// Amortized log GC: the stability threshold min(SV) is monotone, so
	// collecting is only useful when it advanced past the last collection
	// — or when the message just logged is already below it (the map-era
	// per-message gc would have dropped it immediately).
	if sv := gs.minSV(); sv > gs.log.lastGC || m.Num <= sv {
		if e.om.gcPause != nil {
			// Wall-time pause measurement: only metered engines pay the
			// two clock reads. Virtual-time determinism is unaffected —
			// the pause feeds a histogram, never protocol state.
			start := time.Now()
			gs.log.gc(sv)
			e.om.gcPause.ObserveDuration(time.Since(start))
		} else {
			gs.log.gc(sv)
		}
	}
}

// ackOwnRequest clears a now-sequenced request from the pending list,
// which may unblock sends queued behind the §4.2/§4.3 blocking rules.
func (e *Engine) ackOwnRequest(gs *groupState, seq uint64) {
	for i, r := range gs.pendingReqs {
		if r.Seq == seq {
			gs.pendingReqs = append(gs.pendingReqs[:i], gs.pendingReqs[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Delivery pump
// ---------------------------------------------------------------------------

// globalD returns D = min over ordered groups of D_x (§4.1: safe1' gates
// delivery on the minimum across every group the process belongs to).
// Atomic groups do not gate. The result is cached; every mutation that can
// move any group's D_x (an RV-min advance, a view install, a status or
// floor change, the group set changing) clears gDValid.
func (e *Engine) globalD() types.MsgNum {
	if e.gDValid {
		return e.gD
	}
	d := types.InfNum
	for _, gs := range e.groups {
		if gs.status == statusForming || !gs.ordered() {
			continue
		}
		if v := gs.dx(); v < d {
			d = v
		}
	}
	e.gD, e.gDValid = d, true
	return d
}

// pump advances delivery: installs due views and delivers queued messages
// satisfying safe1' and safe2, interleaving the two so that a view update
// is installed exactly between the last delivery with Num ≤ lnmn and the
// first with Num > lnmn (update_view, §5.2 step viii).
func (e *Engine) pump(now time.Time) {
	for {
		if e.tryInstalls(now) {
			continue
		}
		m := e.queue.Peek()
		if m == nil {
			return
		}
		gs, ok := e.groups[m.Group]
		if !ok {
			e.om.dropGroupGone.Inc()
			e.queue.Pop()
			continue
		}
		// A scheduled view update with lnmn < m.Num must be installed
		// before m may be delivered; if its preconditions are not yet
		// met, delivery waits.
		if len(gs.installs) > 0 && gs.installs[0].lnmn < m.Num {
			e.om.stallInstall.Inc()
			return
		}
		if m.Num > e.globalD() {
			e.om.stallSafe1.Inc()
			return
		}
		e.queue.Pop()
		if gs.arena != nil {
			gs.arena.clear(m, arenaQueued)
		}
		// MD1 validity: deliver only messages whose sender is in the
		// current view.
		if !gs.view.Contains(m.Origin) || !gs.view.Contains(m.Sender) {
			e.stats.Discarded++
			e.om.dropStaleView.Inc()
			continue
		}
		e.stats.Delivered++
		e.om.delivered.Inc()
		if e.tracer.Sampled(m.Num) {
			key := obs.TraceKey{Group: m.Group, Origin: m.Origin, Num: m.Num}
			e.tracer.StampIf(key, obs.StageStable, now)
			e.tracer.StampIf(key, obs.StageDelivered, now)
		}
		e.emit(DeliverEffect{Msg: m, View: gs.view.Index, Index: gs.delivered})
		gs.delivered++
	}
}

// tryInstalls installs every scheduled view update whose precondition —
// all messages with Num ≤ lnmn delivered, none still to come — holds.
// Returns true if any view was installed.
func (e *Engine) tryInstalls(now time.Time) bool {
	installed := false
	for _, gs := range e.sortedGroups() {
		for len(gs.installs) > 0 {
			ins := gs.installs[0]
			if !e.canInstall(gs, ins) {
				break
			}
			gs.installs = gs.installs[1:]
			e.installView(now, gs, ins)
			installed = true
		}
	}
	return installed
}

// canInstall checks the update_view wait condition: every message with
// Num ≤ lnmn has been delivered and no further one can arrive.
func (e *Engine) canInstall(gs *groupState, ins viewInstall) bool {
	if gs.ordered() {
		// No undelivered message ≤ lnmn may remain anywhere (delivery
		// is one global sequence), and D must certify that no new
		// message ≤ lnmn can arrive.
		if e.queue.HasAtOrBelow(ins.lnmn) {
			return false
		}
		return e.globalD() >= ins.lnmn
	}
	// Atomic groups deliver on receipt; the group's own D_x ≥ lnmn
	// certifies every member's traffic has passed the cutoff.
	return gs.dx() >= ins.lnmn
}

// installView performs the view change: V := V − failed, rebuilds the
// dense member table and its cached minima for the surviving members,
// re-targets pending asymmetric requests if the sequencer changed, and
// emits the ViewEffect.
func (e *Engine) installView(now time.Time, gs *groupState, ins viewInstall) {
	oldSequencer := gs.sequencer()
	removed := make([]types.ProcessID, 0, len(ins.failed))
	for _, p := range gs.view.Members {
		if ins.failed[p] {
			removed = append(removed, p)
		}
	}
	if len(removed) == 0 {
		return
	}
	oldMembers, oldMem := gs.view.Members, gs.mem
	gs.view = gs.view.Without(ins.failed)
	gs.rebuildMem(oldMembers, oldMem)
	e.gDValid = false
	e.stats.ViewChanges++
	for _, p := range removed {
		delete(gs.held, p)
		gs.log.dropOrigin(p)
		delete(gs.suspicions, p)
	}
	for s := range gs.votes {
		if ins.failed[s.Proc] {
			delete(gs.votes, s)
		}
	}
	e.om.installWait.ObserveDuration(now.Sub(ins.detected))
	e.emit(ViewEffect{View: gs.view.Clone(), Removed: removed, Stable: gs.minSV()})

	// Asymmetric: if the sequencer was excluded, re-unicast every still
	// unsequenced request to the new sequencer. The lnmn cutoff plus
	// identical-ln agreement guarantee this is duplicate-safe: any old
	// sequencer multicast ≤ lnmn reached everyone (clearing the pending
	// entry); any > lnmn was discarded everywhere.
	if gs.mode == Asymmetric && ins.failed[oldSequencer] && len(gs.view.Members) > 0 {
		newSeq := gs.sequencer()
		for _, r := range gs.pendingReqs {
			if newSeq == e.cfg.Self {
				e.sequenceRequest(now, gs, r)
			} else {
				e.send(newSeq, r)
				e.stats.SeqRequests++
			}
		}
		if newSeq == e.cfg.Self {
			gs.pendingReqs = nil
		}
	}
	// Membership agreement may have been waiting on a smaller live set,
	// and a start-group wait may now be satisfiable over the smaller view
	// (§5.3 step 5 counts "every Pj in its current view").
	e.checkAgreement(now, gs)
	e.checkStartComplete(now, gs)
}
