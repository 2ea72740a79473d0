// Package ring implements transport-level ring dissemination of large
// payloads (Ring Paxos style, Marandi et al.): a payload at or above a
// configurable size threshold travels the view-defined ring — each member
// forwards the frame once to its ring successor, so the originator's
// bandwidth is O(payload) instead of O(n·payload) — while the small
// ordering metadata keeps flowing point-to-point, exactly as the engine
// emitted it.
//
// The engine never sees ring traffic. A runtime (internal/node's goroutine
// loop, internal/sim's deterministic scheduler) owns a Ring per process and
// threads every outbound SendEffect and every inbound message through it:
//
//   - OnSend splits an eligible multicast into one KindRingData frame to
//     the ring successor plus one KindRingHdr per remaining destination.
//   - OnReceive relays ring payloads onward, reassembles header + payload
//     (either may arrive first) and releases completed messages to the
//     engine in the header's FIFO arrival order, so the engine's per-origin
//     gap detection never fires on ring reordering.
//   - Tick re-requests payloads that never completed (KindRingPull to the
//     disseminator, served from a bounded cache of recent own sends).
//   - OnViewChange re-disseminates, on the new ring, the recent own
//     payloads that are not yet stable (numbered above the engine's
//     min(SV) at install, so some member may still lack them), and
//     abandons reassembly state owed by removed members; an abandoned
//     message is ordinary message loss to the engine, which the protocol's
//     gap/suspicion/refute recovery already handles.
//
// Ownership contract: OnReceive's relay outbounds may alias the inbound
// message's borrowed transport buffer — the caller must hand them to a
// synchronous-marshal transport before releasing the buffer. Everything in
// the returned delivers slice, and everything the Ring retains internally,
// is sealed (owns its memory).
package ring

import (
	"sort"
	"time"

	"newtop/internal/obs"
	"newtop/internal/types"
)

// Outbound is a frame the runtime must hand to its transport. Msg may
// alias the buffer of the inbound message that produced it; send before
// releasing that buffer.
type Outbound struct {
	To  types.ProcessID
	Msg *types.Message
}

// Delivered is a message released to the engine, with the transport-level
// peer it is attributed to. Msg owns all of its memory.
type Delivered struct {
	From types.ProcessID
	Msg  *types.Message
}

// Config parameterises a Ring.
type Config struct {
	Self types.ProcessID

	// Threshold is the payload size in bytes at or above which a KindData
	// multicast rides the ring. Zero or negative disables splitting (the
	// Ring still relays and reassembles frames from peers that have it on).
	Threshold int

	// PullAfter is how long a reassembly waits for its payload before
	// asking the disseminator to re-send. Zero defaults to 250ms.
	PullAfter time.Duration

	// MineCap bounds the cache of recent own disseminations kept for pull
	// replies and for re-sending, at a view change, those still unstable
	// at the install. Zero defaults to 32.
	MineCap int

	// Metrics, when set, receives ring observability: dissemination /
	// relay / pull counters, hop-count and reassembly-wait histograms,
	// and labeled drop counters for orphan eviction and abandoned
	// reassemblies. Nil disables at one branch per event.
	Metrics *obs.Registry
}

// ringMetrics is the resolved handle set (all nil without Config.Metrics).
type ringMetrics struct {
	disseminations *obs.Counter   // own multicasts split onto the ring
	relays         *obs.Counter   // payload frames forwarded to the successor
	pulls          *obs.Counter   // re-send requests issued by Tick
	pullsServed    *obs.Counter   // pull replies served from the own-send cache
	redisseminated *obs.Counter   // payloads re-sent on a view change
	hops           *obs.Histogram // hop count of payload frames at arrival
	reassemblyWait *obs.Histogram // header-to-payload completion wait (ns)
	dropOrphan     *obs.Counter   // parked payload evicted at orphanCap
	dropAbandoned  *obs.Counter   // incomplete reassembly owed by a removed member
}

func newRingMetrics(reg *obs.Registry) ringMetrics {
	if reg == nil {
		return ringMetrics{}
	}
	return ringMetrics{
		disseminations: reg.Counter("newtop_ring_disseminations_total"),
		relays:         reg.Counter("newtop_ring_relays_total"),
		pulls:          reg.Counter("newtop_ring_pulls_total"),
		pullsServed:    reg.Counter("newtop_ring_pulls_served_total"),
		redisseminated: reg.Counter("newtop_ring_redisseminations_total"),
		hops:           reg.Histogram("newtop_ring_hops"),
		reassemblyWait: reg.Histogram("newtop_ring_reassembly_wait_ns"),
		dropOrphan:     reg.Counter(`newtop_drops_total{layer="ring",reason="orphan_evicted"}`),
		dropAbandoned:  reg.Counter(`newtop_drops_total{layer="ring",reason="reassembly_abandoned"}`),
	}
}

const (
	defaultPullAfter = 250 * time.Millisecond
	defaultMineCap   = 32

	// seenCap bounds the per-group dedupe set of completed message IDs;
	// orphanCap bounds payloads parked while their header is in flight.
	seenCap   = 1024
	orphanCap = 256
)

// Ring is one process's dissemination state across all of its groups.
// It is not safe for concurrent use; each runtime drives it from its own
// single-threaded loop.
type Ring struct {
	cfg    Config
	groups map[types.GroupID]*groupRing

	// Split state of the multicast currently being fanned out: mcast
	// emits the same message to n−1 destinations back to back, and only
	// the first sighting starts a dissemination.
	curID  types.MessageID
	curSet bool
	curHdr *types.Message

	om ringMetrics
}

// New creates a Ring for self with the given config.
func New(cfg Config) *Ring {
	if cfg.PullAfter <= 0 {
		cfg.PullAfter = defaultPullAfter
	}
	if cfg.MineCap <= 0 {
		cfg.MineCap = defaultMineCap
	}
	return &Ring{cfg: cfg, groups: make(map[types.GroupID]*groupRing), om: newRingMetrics(cfg.Metrics)}
}

// groupRing is the per-group dissemination state.
type groupRing struct {
	members []types.ProcessID // sorted view members; the ring order

	// pend holds, per disseminator, the FIFO of messages whose release to
	// the engine is gated on ring reassembly. Only the head may be
	// incomplete; completed items drain in order.
	pend map[types.ProcessID]*senderQueue

	// orphans parks reassembled payloads that arrived before their header.
	orphans     map[types.MessageID]*types.Message
	orphanOrder []types.MessageID

	// seen dedupes completed disseminations (re-disseminated frames after
	// a view change, late relays).
	seen      map[types.MessageID]struct{}
	seenOrder []types.MessageID

	// mine caches owned clones of recent own disseminations for pull
	// replies and view-change re-dissemination of the unstable ones.
	mine []*types.Message
}

// pendItem is one slot in a disseminator's release FIFO: either a fully
// reassembled (or ordinary queued-behind) message, or an expectation
// created by a KindRingHdr whose payload has not arrived yet.
type pendItem struct {
	msg      *types.Message
	complete bool
	since    time.Time
	lastPull time.Time
}

type senderQueue struct {
	items []pendItem
}

func (q *senderQueue) find(id types.MessageID) int {
	for i := range q.items {
		if q.items[i].msg.ID() == id {
			return i
		}
	}
	return -1
}

func (r *Ring) group(g types.GroupID) *groupRing {
	gr := r.groups[g]
	if gr == nil {
		gr = &groupRing{
			pend:    make(map[types.ProcessID]*senderQueue),
			orphans: make(map[types.MessageID]*types.Message),
			seen:    make(map[types.MessageID]struct{}),
		}
		r.groups[g] = gr
	}
	return gr
}

// successor returns the next member after self in ring order, or
// NilProcess when the view has no ring (fewer than two others, or self not
// a member).
func successor(members []types.ProcessID, self types.ProcessID) types.ProcessID {
	n := len(members)
	if n < 2 {
		return types.NilProcess
	}
	for i, p := range members {
		if p == self {
			return members[(i+1)%n]
		}
	}
	return types.NilProcess
}

// OnSend maps one engine SendEffect to the frames that actually go on the
// wire. An eligible multicast (KindData, payload ≥ Threshold, ring of ≥3)
// is split: the first sighting emits the payload-bearing KindRingData to
// the ring successor plus a KindRingHdr to the effect's destination; every
// further destination of the same message gets a header only. Anything
// else passes through unchanged.
func (r *Ring) OnSend(to types.ProcessID, m *types.Message) []Outbound {
	if m.Kind != types.KindData || r.cfg.Threshold <= 0 || len(m.Payload) < r.cfg.Threshold {
		return []Outbound{{To: to, Msg: m}}
	}
	gr := r.groups[m.Group]
	if gr == nil || len(gr.members) < 3 {
		return []Outbound{{To: to, Msg: m}}
	}
	succ := successor(gr.members, r.cfg.Self)
	if succ == types.NilProcess {
		return []Outbound{{To: to, Msg: m}}
	}
	id := m.ID()
	if !r.curSet || r.curID != id {
		// First sighting: start the dissemination.
		r.curID = id
		r.curSet = true
		r.curHdr = hdrFrame(m)
		gr.remember(m, r.cfg.MineCap)
		r.om.disseminations.Inc()
		outs := []Outbound{{To: succ, Msg: ringDataFrame(m, 0)}}
		if to != succ {
			outs = append(outs, Outbound{To: to, Msg: r.curHdr})
		}
		return outs
	}
	if to == succ {
		// The successor already has the self-contained payload frame.
		return nil
	}
	return []Outbound{{To: to, Msg: r.curHdr}}
}

// ringDataFrame builds the payload-bearing ring frame for m. The payload
// aliases m's; callers hand it to a synchronous-marshal transport.
func ringDataFrame(m *types.Message, hops uint8) *types.Message {
	return &types.Message{
		Kind: types.KindRingData, Group: m.Group,
		Sender: m.Sender, Origin: m.Origin,
		Num: m.Num, Seq: m.Seq, LDN: m.LDN,
		Hops: hops, Payload: m.Payload,
	}
}

// hdrFrame builds the payload-less ordering metadata frame for m.
func hdrFrame(m *types.Message) *types.Message {
	return &types.Message{
		Kind: types.KindRingHdr, Group: m.Group,
		Sender: m.Sender, Origin: m.Origin,
		Num: m.Num, Seq: m.Seq, LDN: m.LDN,
	}
}

// reconstruct rebuilds the ordinary data message a ring frame dissected,
// owning a copy of the borrowed payload.
func reconstruct(m *types.Message) *types.Message {
	d := &types.Message{
		Kind: types.KindData, Group: m.Group,
		Sender: m.Sender, Origin: m.Origin,
		Num: m.Num, Seq: m.Seq, LDN: m.LDN,
	}
	if len(m.Payload) > 0 {
		d.Payload = append([]byte(nil), m.Payload...)
	}
	return d
}

// remember caches an owned clone of an own dissemination.
func (gr *groupRing) remember(m *types.Message, cap int) {
	gr.mine = append(gr.mine, m.Clone())
	if len(gr.mine) > cap {
		copy(gr.mine, gr.mine[len(gr.mine)-cap:])
		gr.mine = gr.mine[:cap]
	}
}

func (gr *groupRing) markSeen(id types.MessageID) {
	if _, ok := gr.seen[id]; ok {
		return
	}
	gr.seen[id] = struct{}{}
	gr.seenOrder = append(gr.seenOrder, id)
	if len(gr.seenOrder) > seenCap {
		delete(gr.seen, gr.seenOrder[0])
		gr.seenOrder = gr.seenOrder[1:]
	}
}

// park holds a payload that arrived before its header; it reports whether
// the oldest orphan was evicted to make room (a silent drop the engine
// heals through gap/suspicion recovery — the drop counter makes it loud).
func (gr *groupRing) park(id types.MessageID, m *types.Message) (evicted bool) {
	if _, ok := gr.orphans[id]; ok {
		return false
	}
	gr.orphans[id] = m
	gr.orphanOrder = append(gr.orphanOrder, id)
	if len(gr.orphanOrder) > orphanCap {
		delete(gr.orphans, gr.orphanOrder[0])
		gr.orphanOrder = gr.orphanOrder[1:]
		return true
	}
	return false
}

// OnReceive threads one inbound message through the ring layer. The
// returned outbounds may alias m's transport buffer (send them before
// releasing it); the returned delivers own their memory and go to the
// engine in order.
func (r *Ring) OnReceive(now time.Time, from types.ProcessID, m *types.Message) (outs []Outbound, delivers []Delivered) {
	switch m.Kind {
	case types.KindRingData:
		return r.onRingData(now, from, m)
	case types.KindRingHdr:
		return r.onRingHdr(now, from, m)
	case types.KindRingPull:
		return r.onRingPull(from, m), nil
	}
	// Ordinary traffic: if reassemblies from this peer are pending, the
	// message must queue behind them to preserve the peer's FIFO order;
	// otherwise it goes straight through.
	if gr := r.groups[m.Group]; gr != nil {
		if q := gr.pend[from]; q != nil && len(q.items) > 0 {
			m.Own()
			q.items = append(q.items, pendItem{msg: m, complete: true})
			return nil, nil
		}
	}
	m.Own()
	return nil, []Delivered{{From: from, Msg: m}}
}

// onRingData handles a payload frame: relay it to the ring successor if
// the ring is not yet covered, then slot the payload into reassembly.
func (r *Ring) onRingData(now time.Time, from types.ProcessID, m *types.Message) (outs []Outbound, delivers []Delivered) {
	gr := r.group(m.Group)
	id := m.ID()
	if _, dup := gr.seen[id]; dup {
		// Already completed here (late relay or re-dissemination); our
		// successor got its copy when we first relayed.
		return nil, nil
	}
	if m.Hops != types.RingNoRelay {
		r.om.hops.Observe(int64(m.Hops))
	}
	if m.Hops != types.RingNoRelay && len(gr.members) >= 3 {
		succ := successor(gr.members, r.cfg.Self)
		if succ != types.NilProcess && succ != m.Sender && int(m.Hops)+1 < len(gr.members) {
			rm := *m
			rm.Hops++
			outs = append(outs, Outbound{To: succ, Msg: &rm})
			r.om.relays.Inc()
		}
	}
	// Hops==0 straight from the disseminator means the frame arrived on
	// the same FIFO channel the header would have used: it may take a
	// fresh slot in the release order. A relayed or pulled frame may only
	// complete an existing expectation or park as an orphan.
	ordered := m.Hops == 0 && from == m.Sender
	q := gr.pend[m.Sender]
	if q != nil {
		if i := q.find(id); i >= 0 {
			if it := &q.items[i]; !it.complete && !it.since.IsZero() {
				r.om.reassemblyWait.ObserveDuration(now.Sub(it.since))
			}
			q.items[i].msg = reconstruct(m)
			q.items[i].complete = true
			gr.markSeen(id)
			delivers = r.drain(gr, m.Sender, q, delivers)
			return outs, delivers
		}
	}
	if !ordered {
		if gr.park(id, reconstruct(m)) {
			r.om.dropOrphan.Inc()
		}
		return outs, delivers
	}
	gr.markSeen(id)
	if q != nil && len(q.items) > 0 {
		q.items = append(q.items, pendItem{msg: reconstruct(m), complete: true})
		return outs, delivers
	}
	delivers = append(delivers, Delivered{From: m.Sender, Msg: reconstruct(m)})
	return outs, delivers
}

// onRingHdr handles the ordering metadata: it either completes a parked
// payload immediately or opens an expectation in the disseminator's FIFO.
func (r *Ring) onRingHdr(now time.Time, from types.ProcessID, m *types.Message) (outs []Outbound, delivers []Delivered) {
	gr := r.group(m.Group)
	id := m.ID()
	if _, dup := gr.seen[id]; dup {
		return nil, nil
	}
	q := gr.pend[from]
	if q == nil {
		q = &senderQueue{}
		gr.pend[from] = q
	}
	if q.find(id) >= 0 {
		return nil, nil
	}
	if orphan, ok := gr.orphans[id]; ok {
		delete(gr.orphans, id)
		gr.markSeen(id)
		if len(q.items) == 0 {
			return nil, []Delivered{{From: from, Msg: orphan}}
		}
		q.items = append(q.items, pendItem{msg: orphan, complete: true})
		return nil, nil
	}
	hdr := m.Clone() // owned expectation; reused as the reassembled message
	q.items = append(q.items, pendItem{msg: hdr, since: now, lastPull: now})
	return nil, nil
}

// onRingPull serves a re-send request from the cache of own disseminations.
// The reply is point-to-point and must not be relayed onward.
func (r *Ring) onRingPull(from types.ProcessID, m *types.Message) []Outbound {
	gr := r.groups[m.Group]
	if gr == nil {
		return nil
	}
	want := types.MessageID{Sender: m.Origin, Group: m.Group, Seq: m.Seq}
	for _, mm := range gr.mine {
		if mm.ID() == want {
			r.om.pullsServed.Inc()
			return []Outbound{{To: from, Msg: ringDataFrame(mm, types.RingNoRelay)}}
		}
	}
	return nil
}

// drain releases the completed prefix of a disseminator's FIFO.
func (r *Ring) drain(gr *groupRing, dissem types.ProcessID, q *senderQueue, delivers []Delivered) []Delivered {
	n := 0
	for n < len(q.items) && q.items[n].complete {
		delivers = append(delivers, Delivered{From: dissem, Msg: q.items[n].msg})
		n++
	}
	if n > 0 {
		rest := q.items[n:]
		copy(q.items, rest)
		for i := len(rest); i < len(q.items); i++ {
			q.items[i] = pendItem{}
		}
		q.items = q.items[:len(rest)]
	}
	return delivers
}

// Tick re-requests payloads whose reassembly has been waiting longer than
// PullAfter, rate-limited to one pull per interval per message. The output
// order is deterministic (sorted by group, disseminator, sequence) so the
// simulator's seeded runs stay reproducible.
func (r *Ring) Tick(now time.Time) (outs []Outbound) {
	for g, gr := range r.groups {
		for dissem, q := range gr.pend {
			for i := range q.items {
				it := &q.items[i]
				if it.complete || now.Sub(it.lastPull) < r.cfg.PullAfter {
					continue
				}
				it.lastPull = now
				r.om.pulls.Inc()
				outs = append(outs, Outbound{To: dissem, Msg: &types.Message{
					Kind: types.KindRingPull, Group: g,
					Sender: r.cfg.Self, Origin: it.msg.Origin, Seq: it.msg.Seq,
				}})
			}
		}
	}
	sort.Slice(outs, func(i, j int) bool {
		a, b := outs[i], outs[j]
		if a.Msg.Group != b.Msg.Group {
			return a.Msg.Group < b.Msg.Group
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Msg.Origin != b.Msg.Origin {
			return a.Msg.Origin < b.Msg.Origin
		}
		return a.Msg.Seq < b.Msg.Seq
	})
	return outs
}

// OnViewChange installs the new membership as the ring order, abandons
// reassembly state owed by removed members (releasing anything queued
// behind it — to the engine an abandoned reassembly is ordinary message
// loss), and re-disseminates on the new ring the cached own payloads
// numbered above stable, so in-flight messages survive the topology
// change; receivers dedupe by message ID. stable is the engine's
// stability threshold at the install (core.ViewEffect.Stable): every
// member already holds a payload numbered at or below it, so re-sending
// it would only load the new ring while the survivors agree. A payload in
// flight through a removed member is unstable and is re-sent. Pass 0 to
// re-send the whole cache.
func (r *Ring) OnViewChange(g types.GroupID, members, removed []types.ProcessID, stable types.MsgNum) (outs []Outbound, delivers []Delivered) {
	gr := r.group(g)
	gr.members = append(gr.members[:0], members...)
	sort.Slice(gr.members, func(i, j int) bool { return gr.members[i] < gr.members[j] })
	for _, p := range removed {
		q := gr.pend[p]
		if q == nil {
			continue
		}
		for i := range q.items {
			if q.items[i].complete {
				delivers = append(delivers, Delivered{From: p, Msg: q.items[i].msg})
			} else {
				r.om.dropAbandoned.Inc()
			}
		}
		delete(gr.pend, p)
	}
	if r.cfg.Threshold > 0 && len(gr.members) >= 3 {
		if succ := successor(gr.members, r.cfg.Self); succ != types.NilProcess {
			for _, mm := range gr.mine {
				if mm.Num <= stable {
					continue
				}
				outs = append(outs, Outbound{To: succ, Msg: ringDataFrame(mm, 0)})
				r.om.redisseminated.Inc()
			}
		}
	}
	return outs, delivers
}

// DropGroup discards all state for a departed group.
func (r *Ring) DropGroup(g types.GroupID) { delete(r.groups, g) }

// PendingReassemblies reports how many messages are still waiting for
// their ring payload (diagnostics and tests).
func (r *Ring) PendingReassemblies() int {
	n := 0
	for _, gr := range r.groups {
		for _, q := range gr.pend {
			for i := range q.items {
				if !q.items[i].complete {
					n++
				}
			}
		}
	}
	return n
}
