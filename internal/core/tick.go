package core

import (
	"time"

	"newtop/internal/types"
)

// tickGroup drives one group's timeout machinery.
func (e *Engine) tickGroup(now time.Time, gs *groupState) {
	switch gs.status {
	case statusForming:
		e.tickFormation(now, gs)
		return
	case statusStartWait, statusActive:
	default:
		return
	}

	// Time-silence (§4.1): multicast a null if we have sent nothing in
	// this group for ω.
	if gs.runsTimeSilence(e.cfg.Self, !e.cfg.DisableFailureDetection) &&
		now.Sub(gs.lastSent) >= e.cfg.Omega {
		e.sendNull(now, gs)
	}

	// Failure suspicion (§5.2): suspect members silent for Ω > ω. Every
	// view member has a dense slot with lastHeard primed at activation,
	// so the scan is a straight pass over the member table.
	if !e.cfg.DisableFailureDetection {
		for i, p := range gs.view.Members {
			if p == e.cfg.Self || gs.isRemoved(p) {
				continue
			}
			if _, suspected := gs.suspicions[p]; suspected {
				continue
			}
			if now.Sub(gs.mem[i].lastHeard) >= e.cfg.SuspicionTimeout {
				e.om.suspectSilence.Inc()
				e.raiseSuspicion(now, gs, p)
			}
		}
	}
}

// tickFormation aborts a formation whose vote phase exceeded the deadline
// (§5.3 step 3: the initiator's timeout acts as a veto; non-initiators
// abort symmetrically in case the initiator crashed mid-formation).
func (e *Engine) tickFormation(now time.Time, gs *groupState) {
	f := gs.formation
	if f == nil || now.Before(f.deadline) {
		return
	}
	no := &types.Message{
		Kind: types.KindFormVote, Group: gs.id,
		Sender: e.cfg.Self, Origin: e.cfg.Self,
		Vote: false, Invite: f.members, Payload: []byte{byte(f.mode)},
	}
	e.stats.CtrlSent++
	e.mcastTo(f.members, no)
	e.emit(FormationFailedEffect{Group: gs.id, Reason: "vote timeout"})
	delete(e.groups, gs.id)
	e.groupsChanged()
	delete(e.pre, gs.id)
	e.left[gs.id] = true
}
