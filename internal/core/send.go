package core

import (
	"time"

	"newtop/internal/obs"
	"newtop/internal/types"
)

// blockReason classifies why a submit in gs cannot be transmitted now.
type blockReason uint8

const (
	blockNone blockReason = iota
	blockForming
	blockRule // Send Blocking / Mixed-mode Blocking Rule (§4.2/§4.3)
	blockFlow // flow-control window (§7 / [11])
)

// submitBlock returns the first reason an application multicast in gs must
// be queued, or blockNone when it may be transmitted immediately.
func (e *Engine) submitBlock(gs *groupState) blockReason {
	if gs.status != statusActive {
		return blockForming
	}
	// Send Blocking / Mixed-mode Blocking Rule: a multi-group process
	// must delay unicasting or multicasting m until every previous m'
	// with m'.g ≠ m.g that it unicast has come back from its sequencer.
	// Null messages — time-silence nulls from Tick and prompt nulls from
	// Flush alike — are exempt: they are never delivered, so they cannot
	// violate delivery causality; they only advance clocks and receive
	// vectors (§4.1). That is why sendNull bypasses this check.
	for _, other := range e.groups {
		if other.id != gs.id && len(other.pendingReqs) > 0 {
			return blockRule
		}
	}
	// Flow control (§7 / [11]): bound this process's unstable backlog.
	if w := e.cfg.FlowControlWindow; w > 0 {
		if gs.log.countAbove(e.cfg.Self, gs.minSV()) >= w {
			return blockFlow
		}
	}
	return blockNone
}

// submittable reports whether an application multicast in gs may be
// transmitted right now.
func (e *Engine) submittable(gs *groupState) bool { return e.submitBlock(gs) == blockNone }

// transmit performs the actual multicast of an application payload in gs,
// which must be submittable.
func (e *Engine) transmit(now time.Time, gs *groupState, payload []byte) {
	e.stats.DataSent++
	if gs.mode == Asymmetric {
		e.transmitAsym(now, gs, payload)
		return
	}
	// Symmetric (§4.1) and atomic modes multicast directly.
	num := e.lc.TickSend() // CA1
	gs.mySeq++
	m := e.allocOwn(gs, gs.ordered())
	m.Kind = types.KindData
	m.Group = gs.id
	m.Sender = e.cfg.Self
	m.Origin = e.cfg.Self
	m.Num = num
	m.Seq = gs.mySeq
	m.LDN = gs.dx()
	m.Payload = payload
	if e.tracer.Sampled(num) {
		key := obs.TraceKey{Group: gs.id, Origin: e.cfg.Self, Num: num}
		e.tracer.StampIf(key, obs.StageSubmit, now)
		e.tracer.StampIf(key, obs.StageSend, now)
	}
	e.mcast(gs, m)
	gs.lastSent = now
	// Deliver own messages by executing the protocol (§3): loop the
	// multicast back through the receive path.
	e.onDataPlane(now, gs, gs.memberIndex(e.cfg.Self), m)
}

// transmitAsym disseminates a message through the group's sequencer
// (§4.2). The process unicasts to the sequencer, which multicasts in
// receipt order with a fresh number; the sender delivers its own message
// when the sequencer's multicast arrives.
func (e *Engine) transmitAsym(now time.Time, gs *groupState, payload []byte) {
	num := e.lc.TickSend() // CA1 — unicasts advance the clock like multicasts
	gs.myReqSeq++
	req := &types.Message{
		Kind:    types.KindSeqRequest,
		Group:   gs.id,
		Sender:  e.cfg.Self,
		Origin:  e.cfg.Self,
		Num:     num,
		Seq:     gs.myReqSeq,
		Payload: payload,
	}
	seqr := gs.sequencer()
	if seqr == e.cfg.Self {
		// The sequencer logically unicasts to itself and multicasts
		// (§4.2): sequence immediately.
		e.sequenceRequest(now, gs, req)
		return
	}
	gs.pendingReqs = append(gs.pendingReqs, req)
	e.stats.SeqRequests++
	e.send(seqr, req)
}

// onSeqRequest handles a unicast ordering request at the sequencer. si is
// the sender's member index (membership verified by the caller).
func (e *Engine) onSeqRequest(now time.Time, gs *groupState, si int, m *types.Message) {
	e.lc.Witness(m.Num) // CA2 — receiving a unicast advances the clock
	gs.mem[si].lastHeard = now
	if gs.sequencer() != e.cfg.Self {
		// Views diverge briefly around membership changes; the
		// requester re-unicasts to the new sequencer after its own view
		// change, so dropping here is safe.
		return
	}
	e.sequenceRequest(now, gs, m)
}

// sequenceRequest multicasts a request in receipt order with a fresh
// number. Requests already sequenced (observed as relays) are deduplicated;
// out-of-order requests are dropped (the requester re-unicasts after a
// view change, in order).
func (e *Engine) sequenceRequest(now time.Time, gs *groupState, req *types.Message) {
	if gs.isRemoved(req.Origin) {
		return // never relay messages of an excluded member
	}
	num := e.lc.TickSend() // CA1 for the ordered multicast
	m := &types.Message{
		Kind:    types.KindData,
		Group:   gs.id,
		Sender:  e.cfg.Self,
		Num:     num,
		LDN:     gs.dx(),
		Payload: req.Payload,
	}
	if req.Origin == e.cfg.Self {
		// Our own message: the multicast is a direct transmission, so it
		// is numbered in the direct sequence space.
		gs.mySeq++
		m.Origin = e.cfg.Self
		m.Seq = gs.mySeq
	} else {
		var last uint64
		if oi := gs.memberIndex(req.Origin); oi >= 0 {
			last = gs.mem[oi].seqRelayed
		} else if st, ok := gs.strays[req.Origin]; ok {
			last = st.seqRelayed
		}
		if req.Seq != last+1 {
			return // duplicate or out-of-order request
		}
		m.Origin = req.Origin
		m.Seq = req.Seq
	}
	e.stats.SeqMulticasts++
	if e.tracer.Sampled(num) {
		// The sequencer's multicast is where the ordered identity (group,
		// origin, num) is born; stamp its dissemination here.
		key := obs.TraceKey{Group: gs.id, Origin: m.Origin, Num: num}
		e.tracer.StampIf(key, obs.StageSubmit, now)
		e.tracer.StampIf(key, obs.StageSend, now)
	}
	e.mcast(gs, m)
	gs.lastSent = now
	e.onDataPlane(now, gs, gs.memberIndex(e.cfg.Self), m)
}

// allocOwn returns a zeroed message struct for a self-originated
// data-plane multicast in gs, drawn from the group's arena when enabled.
// The self loopback through onDataPlane always retains it in the
// stability log; queued says whether it will also sit in the delivery
// queue (ordered data — not nulls, not atomic-mode deliveries).
func (e *Engine) allocOwn(gs *groupState, queued bool) *types.Message {
	a := e.arenaFor(gs)
	if a == nil {
		return &types.Message{}
	}
	m := a.alloc()
	flags := arenaLogged
	if queued {
		flags |= arenaQueued
	}
	a.track(m, flags)
	return m
}

// sendNull multicasts a null message in gs: a time-silence null (§4.1,
// from Tick) or a prompt null (from Flush). Nulls carry only protocol
// information; they advance clocks and receive vectors but are never
// delivered.
func (e *Engine) sendNull(now time.Time, gs *groupState) {
	num := e.lc.TickSend()
	gs.mySeq++
	m := e.allocOwn(gs, false) // nulls are logged but never queued
	m.Kind = types.KindNull
	m.Group = gs.id
	m.Sender = e.cfg.Self
	m.Origin = e.cfg.Self
	m.Num = num
	m.Seq = gs.mySeq
	m.LDN = gs.dx()
	e.stats.NullsSent++
	e.mcast(gs, m)
	gs.lastSent = now
	e.onDataPlane(now, gs, gs.memberIndex(e.cfg.Self), m)
}

// drainQueued transmits queued submits that have become unblocked. The
// queue is a strict FIFO across all groups: if the head stays blocked,
// everything behind it waits, preserving the submitter's program order in
// the happened-before relation.
func (e *Engine) drainQueued(now time.Time) {
	for len(e.queued) > 0 {
		head := e.queued[0]
		gs, ok := e.groups[head.g]
		if !ok {
			// The group was departed or its formation failed; the queued
			// send is dropped with it.
			e.om.dropQueuedSubmit.Inc()
			e.queued = e.queued[1:]
			continue
		}
		if !e.submittable(gs) {
			return
		}
		e.queued[0] = queuedSubmit{}
		e.queued = e.queued[1:]
		if len(e.queued) == 0 {
			e.queued = nil
		}
		e.transmit(now, gs, head.payload)
	}
}
