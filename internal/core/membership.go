package core

import (
	"sort"
	"time"

	"newtop/internal/types"
)

// This file implements the group-view (GV) membership agreement of §5.2:
// the event-driven steps (i)–(vii) plus the view-installation step (viii).
// Each group's agreement runs independently ("GVx,i works as if Pi is not a
// member of any other group"); only the update_view wait condition couples
// groups, through the global delivery order (see receive.go).

// raiseSuspicion is step (i): the failure suspector notifies GV of
// {Pk, ln}; GV records it and multicasts a suspect message to every GV
// process in the current view (including GVk itself).
func (e *Engine) raiseSuspicion(now time.Time, gs *groupState, pk types.ProcessID) {
	if pk == e.cfg.Self || gs.isRemoved(pk) || !gs.view.Contains(pk) {
		return
	}
	if _, already := gs.suspicions[pk]; already {
		return
	}
	// ln covers both Pk's direct transmissions and sequencer relays of
	// its messages, so the agreed cutoff lnmn can never fall below a
	// number some member already delivered.
	ln := gs.knownNum(pk)
	gs.suspicions[pk] = ln
	s := types.Suspicion{Proc: pk, LN: ln}
	e.voteFor(gs, s, e.cfg.Self)
	e.stats.Suspicions++
	e.emit(SuspectEffect{Group: gs.id, Susp: s})
	msg := &types.Message{
		Kind: types.KindSuspect, Group: gs.id,
		Sender: e.cfg.Self, Origin: e.cfg.Self, Suspicion: s,
	}
	e.stats.CtrlSent++
	e.mcast(gs, msg)
	e.checkAgreement(now, gs)
}

func (e *Engine) voteFor(gs *groupState, s types.Suspicion, voter types.ProcessID) {
	vs, ok := gs.votes[s]
	if !ok {
		vs = make(map[types.ProcessID]bool)
		gs.votes[s] = vs
	}
	vs[voter] = true
}

// onSuspect is step (ii) plus the receive half of (iii): record a remote
// suspicion, refute it if we hold contrary evidence, and re-evaluate
// agreement.
func (e *Engine) onSuspect(now time.Time, gs *groupState, from types.ProcessID, m *types.Message) {
	s := m.Suspicion
	if s.Proc == e.cfg.Self {
		// (ii): a suspicion of ourselves is discarded, in the hope that
		// some other GV will refute it; (vii) handles confirmation.
		return
	}
	if gs.isRemoved(s.Proc) {
		return
	}
	// (iii): if we have received a message from Pk (directly or via a
	// sequencer relay) numbered above ln, the suspicion is stale — refute
	// it, piggybacking the messages the suspector is missing.
	if gs.knownNum(s.Proc) > s.LN {
		e.sendRefute(gs, s)
		return
	}
	e.voteFor(gs, s, from)
	e.checkAgreement(now, gs)
}

// refuteGossip is the receipt half of (iii): a newly received message from
// sender numbered num disproves every recorded suspicion {sender, ln} with
// ln < num.
func (e *Engine) refuteGossip(now time.Time, gs *groupState, sender types.ProcessID, num types.MsgNum) {
	if len(gs.votes) == 0 {
		return // fast path: no recorded suspicions (every data message lands here)
	}
	for s := range gs.votes {
		if s.Proc == sender && s.LN < num {
			if _, mine := gs.suspicions[sender]; mine {
				continue // our own suspicion is lifted only by a refute (iv)
			}
			e.sendRefute(gs, s)
			delete(gs.votes, s)
		}
	}
}

// sendRefute multicasts a refute for s, piggybacking every retained
// message the suspected process transmitted past ln so the suspector can
// recover them (§5.2 step iii). Unstable messages are always retained, so
// the piggyback is complete by the stability invariant.
func (e *Engine) sendRefute(gs *groupState, s types.Suspicion) {
	missing := gs.log.concerningAbove(s.Proc, s.LN)
	ref := &types.Message{
		Kind: types.KindRefute, Group: gs.id,
		Sender: e.cfg.Self, Origin: e.cfg.Self, Suspicion: s,
	}
	ref.Recovered = make([]types.Message, 0, len(missing))
	for _, mm := range missing {
		ref.Recovered = append(ref.Recovered, *mm)
	}
	e.stats.Refutes++
	e.stats.CtrlSent++
	e.mcast(gs, ref)
}

// onRefute is step (iv): stop suspecting {Pk, ln}, recover the missing
// messages, reprocess messages held while the suspicion was active, and
// echo the refute so other suspectors also stand down.
func (e *Engine) onRefute(now time.Time, gs *groupState, from types.ProcessID, m *types.Message) {
	s := m.Suspicion
	if gs.isRemoved(s.Proc) {
		return
	}
	delete(gs.votes, s) // the suspicion is globally dead once refuted
	ln, mine := gs.suspicions[s.Proc]
	if mine && ln == s.LN {
		delete(gs.suspicions, s.Proc)
		// Recover the missing messages: they were unstable at the
		// refuter, hence retained; process them as if just received, in
		// transmission order.
		for i := range m.Recovered {
			rec := m.Recovered[i].Clone()
			e.stats.Recovered++
			e.handleMessage(now, from, rec)
		}
		// (iv): echo the refute (with our own piggyback) so that every
		// other holder of this suspicion recovers too.
		e.sendRefute(gs, s)
		// Messages held back during the suspicion are "assumed to have
		// been just received".
		held := gs.held[s.Proc]
		delete(gs.held, s.Proc)
		for _, h := range held {
			e.handleMessage(now, h.from, h.m)
		}
	}
	e.checkAgreement(now, gs)
}

// checkAgreement evaluates steps (v) and (vi): confirm our suspicion set
// once every live unsuspected member echoes it, or adopt a buffered
// confirmed detection that has become a subset of our suspicions.
func (e *Engine) checkAgreement(now time.Time, gs *groupState) {
	if gs.status == statusForming {
		return
	}
	// (vi) first: adopt pending confirmations (they represent an
	// agreement already reached elsewhere; identical views confirm
	// identical sets in identical order).
	e.adoptPendingConfirms(now, gs)

	// (v): every {Pk, ln} ∈ suspicions must have a suspect vote from
	// every live member — V minus the suspected processes, minus
	// processes already detected — self included (our vote is implicit
	// in holding the suspicion).
	if len(gs.suspicions) == 0 {
		return
	}
	for pk, ln := range gs.suspicions {
		s := types.Suspicion{Proc: pk, LN: ln}
		votes := gs.votes[s]
		for _, pj := range gs.view.Members {
			if pj == e.cfg.Self || gs.isRemoved(pj) {
				continue
			}
			if _, suspected := gs.suspicions[pj]; suspected {
				continue
			}
			if !votes[pj] {
				return
			}
		}
	}
	// Unanimity: detection := suspicions.
	detection := make([]types.Suspicion, 0, len(gs.suspicions))
	for pk, ln := range gs.suspicions {
		detection = append(detection, types.Suspicion{Proc: pk, LN: ln})
	}
	sort.Slice(detection, func(i, j int) bool { return detection[i].Proc < detection[j].Proc })
	gs.suspicions = make(map[types.ProcessID]types.MsgNum)
	conf := &types.Message{
		Kind: types.KindConfirmed, Group: gs.id,
		Sender: e.cfg.Self, Origin: e.cfg.Self, Detection: detection,
	}
	e.stats.CtrlSent++
	e.mcast(gs, conf)
	e.applyDetection(now, gs, detection)
}

// onConfirmed is steps (vi) and (vii).
func (e *Engine) onConfirmed(now time.Time, gs *groupState, from types.ProcessID, m *types.Message) {
	// (vii): a confirmation that includes us means a subgroup has agreed
	// to exclude us — reciprocate by suspecting the sender, which leads
	// our side of the (virtual) partition to exclude them.
	for _, s := range m.Detection {
		if s.Proc == e.cfg.Self {
			e.raiseSuspicion(now, gs, from)
			return
		}
	}
	// Filter out processes we have already detected (duplicate echo of an
	// agreement we have applied).
	fresh := m.Detection[:0:0]
	for _, s := range m.Detection {
		if !gs.isRemoved(s.Proc) {
			fresh = append(fresh, s)
		}
	}
	if len(fresh) == 0 {
		return
	}
	gs.pendingConfirms = append(gs.pendingConfirms, confirmRec{from: from, detection: fresh})
	e.checkAgreement(now, gs)
}

// adoptPendingConfirms applies step (vi) to buffered confirmations: when a
// received detection set is a subset of our suspicions, adopt it, echo the
// confirmation, and detect exactly that set.
func (e *Engine) adoptPendingConfirms(now time.Time, gs *groupState) {
	for i := 0; i < len(gs.pendingConfirms); {
		rec := gs.pendingConfirms[i]
		// Prune processes already detected (view installed or pending).
		live := rec.detection[:0:0]
		for _, s := range rec.detection {
			if !gs.isRemoved(s.Proc) {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			gs.pendingConfirms = append(gs.pendingConfirms[:i], gs.pendingConfirms[i+1:]...)
			continue
		}
		subset := true
		for _, s := range live {
			if ln, mine := gs.suspicions[s.Proc]; !mine || ln != s.LN {
				subset = false
				break
			}
		}
		if !subset {
			gs.pendingConfirms[i].detection = live
			i++
			continue
		}
		// (vi): detection := detectionj; suspicions -= detection; echo.
		gs.pendingConfirms = append(gs.pendingConfirms[:i], gs.pendingConfirms[i+1:]...)
		for _, s := range live {
			delete(gs.suspicions, s.Proc)
		}
		conf := &types.Message{
			Kind: types.KindConfirmed, Group: gs.id,
			Sender: e.cfg.Self, Origin: e.cfg.Self, Detection: live,
		}
		e.stats.CtrlSent++
		e.mcast(gs, conf)
		e.applyDetection(now, gs, live)
		i = 0 // detection may unblock further pending confirmations
	}
}

// applyDetection is step (viii): treat the detection set as failed
// "together". Messages from failed processes numbered above
// lnmn = min{ln} are discarded (a safety measure preserving MD5/MD5'),
// RV and SV entries jump to infinity so D can pass lnmn, and
// update_view(failed, lnmn) is scheduled — the view installs after the
// last message with Num ≤ lnmn is delivered (see pump/tryInstalls).
func (e *Engine) applyDetection(now time.Time, gs *groupState, detection []types.Suspicion) {
	failed := make(map[types.ProcessID]bool, len(detection))
	lnmn := types.InfNum
	for _, s := range detection {
		failed[s.Proc] = true
		if s.LN < lnmn {
			lnmn = s.LN
		}
	}
	for pk := range failed {
		gs.markRemoved(pk)
		delete(gs.suspicions, pk)
		delete(gs.held, pk)
	}
	for s := range gs.votes {
		if failed[s.Proc] {
			delete(gs.votes, s)
		}
	}
	// Discard received-but-undelivered messages from the failed processes
	// with Num > lnmn, even though they were sent before the failure.
	// Relays of a failed origin's messages fall under the same cutoff.
	var unrelayed []*types.Message
	e.stats.Discarded += uint64(e.queue.Discard(func(m *types.Message) bool {
		drop := m.Group == gs.id && (failed[m.Sender] || failed[m.Origin]) && m.Num > lnmn
		if drop && gs.arena != nil {
			gs.arena.clear(m, arenaQueued)
		}
		if drop && m.Sender != m.Origin && !failed[m.Origin] {
			unrelayed = append(unrelayed, m)
		}
		return drop
	}))
	e.unrelay(gs, unrelayed)
	// RV[k] := ∞, SV[k] := ∞ — lets D and stability advance past the
	// departed processes (the failed set is always a subset of the
	// current view; see checkAgreement/adoptPendingConfirms).
	for pk := range failed {
		if i := gs.memberIndex(pk); i >= 0 {
			gs.bumpRV(i, types.InfNum)
			gs.bumpSV(i, types.InfNum)
		}
	}
	e.gDValid = false
	gs.installs = append(gs.installs, viewInstall{failed: failed, lnmn: lnmn, detected: now})
	// The view installs once every peer's D passes lnmn, and lnmn is
	// often the victim's latest time-silence null. A survivor whose own
	// last number is below it owes nothing under Flush, which answers
	// peer data only, so without this null every peer would wait for its
	// next time-silence null, up to ω + ω/2. This member holds the
	// detection's suspicions with its own ln values, so its clock has
	// witnessed lnmn and the null is numbered above it. Nulls create no
	// debt: this costs at most one null per member per detection.
	if gs.mode == Symmetric && gs.status == statusActive {
		if self := gs.memberIndex(e.cfg.Self); self >= 0 && gs.mem[self].rv < lnmn {
			e.sendNull(now, gs)
		}
	}
}

// unrelay undoes the failed sequencer's discarded relays of live origins'
// messages (asymmetric mode): every survivor discards exactly the relays
// numbered above lnmn, so each rolls the origin's relay sequence back to
// just below the first discarded one, and an origin that already took a
// discarded relay of its own message as the sequencer's acknowledgement
// makes the request pending again. installView then re-sends pending
// requests to the new sequencer, which accepts them in sequence — so a
// request is neither lost at its origin nor refused as a duplicate.
func (e *Engine) unrelay(gs *groupState, relays []*types.Message) {
	if len(relays) == 0 {
		return
	}
	sort.Slice(relays, func(i, j int) bool { return relays[i].Seq < relays[j].Seq })
	var restored []*types.Message
	for _, m := range relays {
		if oi := gs.memberIndex(m.Origin); oi >= 0 && m.Seq <= gs.mem[oi].seqRelayed {
			gs.mem[oi].seqRelayed = m.Seq - 1
		}
		if m.Origin == e.cfg.Self {
			restored = append(restored, &types.Message{
				Kind: types.KindSeqRequest, Group: gs.id,
				Sender: e.cfg.Self, Origin: e.cfg.Self,
				Num: m.Num, Seq: m.Seq, Payload: m.Payload,
			})
		}
	}
	if len(restored) > 0 {
		gs.pendingReqs = append(restored, gs.pendingReqs...)
	}
}
