package main

import (
	"fmt"
	"time"
)

// legNames is the latency budget's chain, in order. The kv chain runs at
// the serving daemon; the multicast chain at the member that delivered
// last. See README.md for what each leg covers per workload.
var legNames = []string{
	"queue", "serve_leg", "submit_send", "send_receive", "receive_ordered",
	"ordered_stable", "stable_delivered", "delivered_applied",
}

// layerAcc accumulates the traced episodes' per-layer readings.
type layerAcc struct {
	ops       int      // steady-phase operations
	ctr       counters // steady-phase growth of the program's counters
	cost      probe    // steady-phase process costs
	retries   uint64
	failovers uint64
	detect    []float64 // ms, per episode
	exclude   []float64 // ms, per episode
	views     []float64 // view installs per survivor, per episode
	lagMax    time.Duration
	traces    int

	orderWait    []float64 // ordered→stable, every traced (message, member)
	network      []float64 // origin send → peer receive
	deliverApply []float64 // delivered→applied at the origin (kv)
	submitSend   []float64 // Submit call → origin send stamp (mcast)
	stableOut    []float64 // stable → application receipt (mcast)

	// The budget: per traced op, one sample per legNames entry and the
	// span they add up to; total holds the traced end-to-end samples
	// whose p50 the budget explains.
	chains     [][]float64
	chainTotal []float64
	total      []float64

	// kv only: the client-side legs, which cannot be joined per operation
	// to the daemon's traces from outside. The queue leg is scheduled →
	// client call; the serve leg is the client call's p50 minus the
	// serving daemon's submit→applied p50.
	queue      []float64
	clientSpan []float64
	originSpan []float64
}

func (a *layerAcc) chain(legs []float64, total float64) {
	a.chains = append(a.chains, legs)
	a.chainTotal = append(a.chainTotal, total)
}

// budget returns each leg's share of the median op: the mean of each leg
// over the traced ops whose chain total lies within ±5 percentiles of the
// median. Means over one set of ops add up, where per-leg medians need not.
func (a *layerAcc) budget() map[string]float64 {
	sorted := append([]float64(nil), a.chainTotal...)
	lo, hi := quantile(sorted, 0.45), quantile(sorted, 0.55)
	out := map[string]float64{}
	n := 0.0
	for i, c := range a.chains {
		if a.chainTotal[i] < lo || a.chainTotal[i] > hi {
			continue
		}
		n++
		for j, v := range c {
			out[legNames[j]] += v
		}
	}
	for k := range out {
		out[k] /= n
	}
	if len(a.clientSpan) > 0 {
		out["queue"] = quantile(a.queue, 0.5)
		out["serve_leg"] = quantile(a.clientSpan, 0.5) - quantile(a.originSpan, 0.5)
	}
	return out
}

// metrics computes every per-layer metric, prints the budget table, and
// adds the tracing overhead from the traced and untraced pools.
func (a *layerAcc) metrics(title string, pools [2]pool) map[string]float64 {
	ops := float64(a.ops)
	c := a.ctr.c
	pulls := float64(c["newtop_ring_pulls_total"])
	m := map[string]float64{
		"client.retries":                float64(a.retries),
		"client.failovers":              float64(a.failovers),
		"rsm.propose_apply_ms_p50":      a.ctr.histP50("newtop_rsm_propose_apply_ns") / 1e6,
		"rsm.deliver_to_apply_us_p50":   quantile(a.deliverApply, 0.5) * 1e3,
		"storage.wal_appends_per_op":    per(float64(c["newtop_wal_appends_total"]), ops),
		"storage.wal_fsyncs_per_op":     per(float64(c["newtop_wal_fsyncs_total"]), ops),
		"storage.fsync_us_p50":          a.ctr.histP50("newtop_wal_fsync_seconds") / 1e3,
		"core.order_wait_ms_p50":        quantile(a.orderWait, 0.5),
		"core.nulls_per_op":             per(float64(a.ctr.stats.NullsSent), ops),
		"core.msgs_per_op":              per(float64(a.ctr.stats.MsgsSent), ops),
		"core.safe1_stalls_per_kop":     per(1e3*float64(c[`newtop_engine_gate_stall_total{gate="safe1"}`]), ops),
		"core.detect_ms":                median(a.detect),
		"core.exclude_ms":               median(a.exclude),
		"core.view_changes":             median(a.views),
		"node.submit_to_send_us_p50":    quantile(a.submitSend, 0.5) * 1e3,
		"node.stable_to_deliver_us_p50": quantile(a.stableOut, 0.5) * 1e3,
		"tcpnet.frames_per_write_p50":   a.ctr.histP50("newtop_tcpnet_frames_per_write"),
		"tcpnet.writes_per_op":          per(float64(c["newtop_tcpnet_batch_writes_total"]), ops),
		"tcpnet.send_to_receive_us_p50": quantile(a.network, 0.5) * 1e3,
		"ring.relays_per_op":            per(float64(c["newtop_ring_relays_total"]), ops),
		"ring.hops_p50":                 a.ctr.histP50("newtop_ring_hops"),
		"ring.reassembly_wait_ms_p50":   a.ctr.histP50("newtop_ring_reassembly_wait_ns") / 1e6,
		"ring.pulls_per_kop":            per(1e3*pulls, ops),
		"ring.pull_hit_ratio":           per(float64(c["newtop_ring_pulls_served_total"]), pulls),
		"proc.cpu_us_per_op":            per(us(a.cost.cpu), ops),
		"go.allocs_per_op":              per(float64(a.cost.allocs), ops),
		"go.gc_pause_ms":                ms(a.cost.pause),
		"gen.lag_ms_max":                ms(a.lagMax),
		"trace.traces":                  float64(a.traces),
	}

	b := a.budget()
	p50 := quantile(a.total, 0.5)
	fmt.Printf("budget of the median %s (ms; %d traced ops, p50 %.3f):\n", title, len(a.chains), p50)
	sum, largest := 0.0, legNames[0]
	for _, n := range legNames {
		m["budget."+n+"_ms"] = b[n]
		sum += b[n]
		if b[n] > b[largest] {
			largest = n
		}
		fmt.Printf("  %-18s %9.3f\n", n, b[n])
	}
	m["budget.remainder_ms"] = p50 - sum
	m["budget.traced_p50_ms"] = p50
	m["daemon.serve_leg_ms_p50"] = b["serve_leg"]
	fmt.Printf("  %-18s %9.3f\n  largest leg: %s\n", "remainder", p50-sum, largest)

	untraced, traced := pools[0].endToEnd(), pools[1].endToEnd()
	fmt.Println("tracing overhead (traced vs untraced episodes of this run):")
	for _, d := range endToEnd {
		o := per(traced[d.name]-untraced[d.name], untraced[d.name])
		m["overhead."+d.name] = o
		fmt.Printf("  %-16s untraced %10.4f  traced %10.4f  %+6.1f%%\n", d.name, untraced[d.name], traced[d.name], 100*o)
	}
	return m
}
