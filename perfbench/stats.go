package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"newtop"
)

// quantile returns the exact q-quantile (nearest rank) of raw samples; 0
// for none. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides, returning 0 for an empty base.
func per(n, base float64) float64 {
	if base == 0 {
		return 0
	}
	return n / base
}

// probe is a point-in-time reading of the process-wide costs: CPU time,
// heap allocations and GC pause time.
type probe struct {
	cpu    time.Duration
	allocs uint64
	pause  time.Duration
}

func readProbe() probe {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		pause:  time.Duration(ms.PauseTotalNs),
	}
}

func (p probe) sub(q probe) probe {
	return probe{cpu: p.cpu - q.cpu, allocs: p.allocs - q.allocs, pause: p.pause - q.pause}
}

func (p probe) add(q probe) probe {
	return probe{cpu: p.cpu + q.cpu, allocs: p.allocs + q.allocs, pause: p.pause + q.pause}
}

// counters is a summed reading of the program's own counters across the
// processes of a fleet: registry counters and histograms plus the
// engine's Stats.
type counters struct {
	c     map[string]uint64
	hists map[string][]newtop.HistogramSnapshot
	stats newtop.Stats
}

func readCounters(procs []*newtop.Process) counters {
	out := counters{c: map[string]uint64{}, hists: map[string][]newtop.HistogramSnapshot{}}
	for _, p := range procs {
		snap := p.Metrics()
		for k, v := range snap.Counters {
			out.c[k] += v
		}
		for k, h := range snap.Histograms {
			out.hists[k] = append(out.hists[k], h)
		}
		s := p.Stats()
		out.stats.NullsSent += s.NullsSent
		out.stats.MsgsSent += s.MsgsSent
	}
	return out
}

// delta is the counter growth from an earlier reading; histogram
// summaries are taken from the later reading as they are.
func (c counters) delta(before counters) counters {
	out := counters{c: map[string]uint64{}, hists: c.hists}
	for k, v := range c.c {
		out.c[k] = v - before.c[k]
	}
	out.stats.NullsSent = c.stats.NullsSent - before.stats.NullsSent
	out.stats.MsgsSent = c.stats.MsgsSent - before.stats.MsgsSent
	return out
}

func (c counters) add(o counters) counters {
	if c.c == nil {
		c = counters{c: map[string]uint64{}, hists: map[string][]newtop.HistogramSnapshot{}}
	}
	for k, v := range o.c {
		c.c[k] += v
	}
	for k, h := range o.hists {
		c.hists[k] = append(c.hists[k], h...)
	}
	c.stats.NullsSent += o.stats.NullsSent
	c.stats.MsgsSent += o.stats.MsgsSent
	return c
}

// histP50 is the count-weighted mean of the per-process p50s of every
// histogram whose name starts with prefix (the registry's summaries are
// log-bucketed, ≤12.5% wide; good enough for a per-layer reading).
func (c counters) histP50(prefix string) float64 {
	var sum, n float64
	for k, hs := range c.hists {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, h := range hs {
			sum += float64(h.P50) * float64(h.Count)
			n += float64(h.Count)
		}
	}
	return per(sum, n)
}

// explainedDrops mirrors the drop-reason allowlist internal/capacity
// (and the R4/R6 harness scenarios) apply to a healthy run: formation,
// view-change and drain leftovers. Anything else fails the run.
var explainedDrops = map[string]bool{
	`layer="core",reason="left_group"`:               true,
	`layer="core",reason="removed_member"`:           true,
	`layer="core",reason="not_member"`:               true,
	`layer="core",reason="seq_gap"`:                  true,
	`layer="core",reason="stale_view"`:               true,
	`layer="core",reason="group_gone"`:               true,
	`layer="core",reason="queued_submit_group_gone"`: true,
	`layer="ring",reason="orphan_evicted"`:           true,
	`layer="ring",reason="reassembly_abandoned"`:     true,
}

// crashDrops are the extra reasons a silent crash explains over TCP: the
// survivors' senders find the dead peer's port closed and drop what they
// owed it. They are allowed only in the counter growth after the crash.
var crashDrops = map[string]bool{
	`layer="tcpnet",reason="dial_failed"`:     true,
	`layer="tcpnet",reason="backoff_dropped"`: true,
}

// unexplainedDrops returns the first drop reason in c outside the
// allowlists, or "".
func unexplainedDrops(c counters, afterCrash bool) string {
	for name, v := range c.c {
		labels, ok := strings.CutPrefix(name, "newtop_drops_total{")
		if !ok || v == 0 {
			continue
		}
		labels = strings.TrimSuffix(labels, "}")
		if explainedDrops[labels] || (afterCrash && crashDrops[labels]) {
			continue
		}
		return labels
	}
	return ""
}
