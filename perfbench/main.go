// Command perfbench is the repository benchmark. It boots fresh fleets in
// this one process — kv daemons or bare newtop processes talking over
// loopback TCP — drives them with a seeded open-loop schedule, checks
// that every output is correct, and prints one JSON line of metrics.
//
//	go run . -workload kv-trickle -seed 1 -seconds 40 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// switches the program's stage tracer on in every other episode and
// reports per-layer metrics, the latency budget and the tracing overhead
// instead. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Fleet-wide protocol settings, identical in every workload.
const (
	omega         = 20 * time.Millisecond
	ringThreshold = 4096
	// ringPullAfter is how long a member waits for a ring payload before
	// pulling it from the originator. It stays below the suspicion
	// timeout Ω = 5ω; the program's 250 ms default does not (README.md,
	// "Finding").
	ringPullAfter = 2 * omega
	// episodes is how many fresh fleets one run boots, one after the
	// other; the load time is split evenly between them. Each episode
	// gives one setup and one crash sample.
	episodes = 5
	// extraSetups more fleets are booted and closed unloaded before the
	// episodes, so setup_s is a median of episodes+extraSetups boots: single
	// boots of one fleet shape spread 2–12 ms. A
	// traced run boots them only to warm the process up: its overhead
	// compares episode boots with episode boots.
	extraSetups = 100
	// drainWindow bounds how long a run waits for scheduled operations
	// to finish once the schedule is exhausted; unfinished ones fail.
	drainWindow = 10 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, per-layer the traced run's.
// Both lists match BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"unavailable_ms", "ms"},
}

var perLayer = []metricDef{
	{"client.retries", "count"},
	{"client.failovers", "count"},
	{"daemon.serve_leg_ms_p50", "ms"},
	{"rsm.propose_apply_ms_p50", "ms"},
	{"rsm.deliver_to_apply_us_p50", "us"},
	{"storage.wal_appends_per_op", "1/op"},
	{"storage.wal_fsyncs_per_op", "1/op"},
	{"storage.fsync_us_p50", "us"},
	{"core.order_wait_ms_p50", "ms"},
	{"core.nulls_per_op", "1/op"},
	{"core.msgs_per_op", "1/op"},
	{"core.safe1_stalls_per_kop", "1/kop"},
	{"core.detect_ms", "ms"},
	{"core.exclude_ms", "ms"},
	{"core.view_changes", "count"},
	{"node.submit_to_send_us_p50", "us"},
	{"node.stable_to_deliver_us_p50", "us"},
	{"tcpnet.frames_per_write_p50", "count"},
	{"tcpnet.writes_per_op", "1/op"},
	{"tcpnet.send_to_receive_us_p50", "us"},
	{"ring.relays_per_op", "1/op"},
	{"ring.hops_p50", "count"},
	{"ring.reassembly_wait_ms_p50", "ms"},
	{"ring.pulls_per_kop", "1/kop"},
	{"ring.pull_hit_ratio", "ratio"},
	{"proc.cpu_us_per_op", "us"},
	{"go.allocs_per_op", "1/op"},
	{"go.gc_pause_ms", "ms"},
	{"gen.lag_ms_max", "ms"},
	{"trace.traces", "count"},
	{"budget.queue_ms", "ms"},
	{"budget.serve_leg_ms", "ms"},
	{"budget.submit_send_ms", "ms"},
	{"budget.send_receive_ms", "ms"},
	{"budget.receive_ordered_ms", "ms"},
	{"budget.ordered_stable_ms", "ms"},
	{"budget.stable_delivered_ms", "ms"},
	{"budget.delivered_applied_ms", "ms"},
	{"budget.remainder_ms", "ms"},
	{"budget.traced_p50_ms", "ms"},
	{"overhead.setup_s", "ratio"},
	{"overhead.write_p50_ms", "ratio"},
	{"overhead.write_p90_ms", "ratio"},
	{"overhead.read_p50_ms", "ratio"},
	{"overhead.read_p90_ms", "ratio"},
	{"overhead.unavailable_ms", "ratio"},
}

// runConfig is what one invocation asks for.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	dir     string // scratch: WAL directories and span dumps
}

// episodeLen is the load time of one episode.
func (rc runConfig) episodeLen() time.Duration {
	return time.Duration(rc.seconds) * time.Second / episodes
}

// traced reports whether episode ep runs with the stage tracer on: every
// other episode of a traced run, so the untraced ones in between measure
// the tracing overhead under the same conditions.
func (rc runConfig) traced(ep int) bool { return rc.trace && ep%2 == 1 }

// pool gathers the end-to-end samples of a set of episodes.
type pool struct {
	setup   []float64 // s, one per episode
	unavail []float64 // ms, one per episode
	write   []float64 // ms, steady phase
	read    []float64 // ms, steady phase
}

func (p *pool) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        median(p.setup),
		"write_p50_ms":   quantile(p.write, 0.50),
		"write_p90_ms":   quantile(p.write, 0.90),
		"read_p50_ms":    quantile(p.read, 0.50),
		"read_p90_ms":    quantile(p.read, 0.90),
		"unavailable_ms": median(p.unavail),
	}
}

// result is what a workload run returns: operation accounting, any
// correctness failures, and its pools (index 1: traced episodes).
type result struct {
	attempted, failed int
	problems          []string
	pools             [2]pool
	layers            map[string]float64 // traced runs only
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload func(rc runConfig) (*result, error)

var workloads = map[string]workload{
	"kv-trickle": runKV,
	"mcast-load": func(rc runConfig) (*result, error) { return runMcast(rc, mcastLoad) },
	"mcast-ring": func(rc runConfig) (*result, error) { return runMcast(rc, mcastRing) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "kv-trickle, mcast-load or mcast-ring")
	seed := flag.Int64("seed", 1, "workload seed: arrival times, op mix, keys and payloads")
	seconds := flag.Int("seconds", 40, "load time of the whole run, split over the episodes")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench.d", "scratch directory (WALs, span dumps)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < episodes || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: filepath.Join(*dir, *name)}
	if err := os.RemoveAll(rc.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := output{Correct: len(res.problems) == 0 && res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	if out.Correct {
		defs, values := endToEnd, res.pools[0].endToEnd()
		if rc.trace {
			defs, values = perLayer, res.layers
		}
		for _, d := range defs {
			v, ok := values[d.name]
			if !ok {
				panic("perfbench: workload did not compute " + d.name)
			}
			out.Metrics[d.name] = metric{v, d.unit}
		}
		printTable(out.Metrics)
	}
	line, _ := json.Marshal(out) // plain structs of floats and strings
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
