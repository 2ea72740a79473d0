package core

import (
	"newtop/internal/obs"
)

// engMetrics is the engine's resolved metric handles. Resolution happens
// once in NewEngine; every handle is nil when the engine was built
// without a registry, making each update a single predictable branch
// (obs handles are nil-receiver no-ops). The receive hot path stays
// 0 allocs/op either way — the EngineHandleMessage perf gate holds it.
type engMetrics struct {
	delivered *obs.Counter // application deliveries emitted

	// Gate-stall reasons: why the pump left the delivery-queue head
	// undelivered this pass. safe1' is the cross-group clock gate
	// (m.Num > globalD); view_install is the update_view wait (§5.2 step
	// viii) holding delivery until a scheduled view lands.
	stallSafe1   *obs.Counter
	stallInstall *obs.Counter

	// Labeled drop sites — every silent `return`/`continue` that loses a
	// message increments exactly one of these.
	dropPreOverflow  *obs.Counter // pre-formation buffer full
	dropLeftGroup    *obs.Counter // traffic for a departed group
	dropRemoved      *obs.Counter // sender/origin already excluded from the view
	dropNotMember    *obs.Counter // sender never in the view
	dropSeqGap       *obs.Counter // FIFO gap (transport loss) — prefix recovers via refute
	dropStaleView    *obs.Counter // MD1 cutoff: origin left the view before delivery
	dropGroupGone    *obs.Counter // queued message whose group was departed
	dropQueuedSubmit *obs.Counter // queued submit dropped with its group

	// Suspicions raised by source: a transport peer-down hint
	// (Engine.Suspect) or Ω of time silence (the tick scan).
	suspectPeerDown *obs.Counter
	suspectSilence  *obs.Counter

	gcPause     *obs.Histogram // stability-log gc wall time (ns)
	installWait *obs.Histogram // detection applied → view installed (ns, runtime clock)
	queueDepth  *obs.Gauge     // received-but-undelivered ordered messages
	arenaLive   *obs.Gauge     // arena slots still held by log/queue
	arenaGrace  *obs.Gauge     // slots released this stimulus, pending promotion
	logSize     *obs.Gauge     // unstable messages retained across groups
}

// enabled reports whether any handle is live; finish() skips its gauge
// sweep entirely on an unmetered engine.
func (m *engMetrics) enabled() bool { return m.delivered != nil }

func newEngMetrics(reg *obs.Registry) engMetrics {
	if reg == nil {
		return engMetrics{}
	}
	drop := func(reason string) *obs.Counter {
		return reg.Counter(`newtop_drops_total{layer="core",reason="` + reason + `"}`)
	}
	return engMetrics{
		delivered:        reg.Counter("newtop_engine_delivered_total"),
		stallSafe1:       reg.Counter(`newtop_engine_gate_stall_total{gate="safe1"}`),
		stallInstall:     reg.Counter(`newtop_engine_gate_stall_total{gate="view_install"}`),
		dropPreOverflow:  drop("prebuffer_overflow"),
		dropLeftGroup:    drop("left_group"),
		dropRemoved:      drop("removed_member"),
		dropNotMember:    drop("not_member"),
		dropSeqGap:       drop("seq_gap"),
		dropStaleView:    drop("stale_view"),
		dropGroupGone:    drop("group_gone"),
		dropQueuedSubmit: drop("queued_submit_group_gone"),
		suspectPeerDown:  reg.Counter(`newtop_suspicions_total{source="peer_down"}`),
		suspectSilence:   reg.Counter(`newtop_suspicions_total{source="silence"}`),
		gcPause:          reg.Histogram("newtop_engine_log_gc_ns"),
		installWait:      reg.Histogram("newtop_engine_view_install_wait_ns"),
		queueDepth:       reg.Gauge("newtop_engine_queue_depth"),
		arenaLive:        reg.Gauge("newtop_engine_arena_live"),
		arenaGrace:       reg.Gauge("newtop_engine_arena_grace"),
		logSize:          reg.Gauge("newtop_engine_log_size"),
	}
}
