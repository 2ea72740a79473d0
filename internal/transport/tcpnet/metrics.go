package tcpnet

import "newtop/internal/obs"

// epMetrics holds the endpoint's pre-resolved observability handles. The
// legacy BatchStats/DialStats accessors are thin views over these
// counters, so an endpoint always carries a registry — a private one when
// the configuration supplies none.
type epMetrics struct {
	batchWrites  *obs.Counter
	framesSent   *obs.Counter
	dialAttempts *obs.Counter
	dialFailures *obs.Counter
	writeErrors  *obs.Counter

	// Peer-down hints: probe dials after an identified inbound
	// connection ended, and the refused ones that queued a hint. Probes
	// stay out of the dial and drop counters above — they carry no data.
	peerProbes *obs.Counter
	peerDown   *obs.Counter

	// framesPerWrite records the realised batching factor per flush.
	framesPerWrite *obs.Histogram

	// backoffPeers counts peers currently sitting out a dial backoff
	// window (their drained batches are dropped without a syscall).
	backoffPeers *obs.Gauge

	// Receive-buffer pool pressure: base-tier gets are the steady state;
	// oversize gets mean a frame outgrew recvBufSize.
	bufBase     *obs.Counter
	bufOversize *obs.Counter

	// Drop counters, labeled by reason. Frames counted here never reached
	// the peer (send side) or the consumer (receive side).
	dropDecode      *obs.Counter // inbound frame failed wire decode
	dropFrameTooBig *obs.Counter // inbound frame exceeded MaxFrame
	dropBackoff     *obs.Counter // outbound batch dropped during dial backoff
	dropDialFailed  *obs.Counter // outbound batch dropped on a failed dial
}

func newEpMetrics(reg *obs.Registry) epMetrics {
	return epMetrics{
		batchWrites:     reg.Counter("newtop_tcpnet_batch_writes_total"),
		framesSent:      reg.Counter("newtop_tcpnet_frames_sent_total"),
		dialAttempts:    reg.Counter("newtop_tcpnet_dial_attempts_total"),
		dialFailures:    reg.Counter("newtop_tcpnet_dial_failures_total"),
		writeErrors:     reg.Counter("newtop_tcpnet_write_errors_total"),
		peerProbes:      reg.Counter("newtop_tcpnet_peer_probes_total"),
		peerDown:        reg.Counter("newtop_tcpnet_peer_down_total"),
		framesPerWrite:  reg.Histogram("newtop_tcpnet_frames_per_write"),
		backoffPeers:    reg.Gauge("newtop_tcpnet_backoff_peers"),
		bufBase:         reg.Counter(`newtop_tcpnet_recv_buf_gets_total{tier="base"}`),
		bufOversize:     reg.Counter(`newtop_tcpnet_recv_buf_gets_total{tier="oversize"}`),
		dropDecode:      reg.Counter(`newtop_drops_total{layer="tcpnet",reason="decode_error"}`),
		dropFrameTooBig: reg.Counter(`newtop_drops_total{layer="tcpnet",reason="frame_too_big"}`),
		dropBackoff:     reg.Counter(`newtop_drops_total{layer="tcpnet",reason="backoff_dropped"}`),
		dropDialFailed:  reg.Counter(`newtop_drops_total{layer="tcpnet",reason="dial_failed"}`),
	}
}
