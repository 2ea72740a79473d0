package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"newtop/internal/core"
)

// Result is the machine-readable outcome of one engine benchmark, with an
// optional baseline for before/after tracking across commits.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// Baseline, when present, is the same benchmark measured at an
	// earlier commit (loaded via MergeBaseline).
	Baseline *Baseline `json:"baseline,omitempty"`
}

// Baseline is a prior measurement of the same benchmark.
type Baseline struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Note        string  `json:"note,omitempty"`
}

// Report is the schema of BENCH_core.json.
type Report struct {
	Schema      int      `json:"schema"`
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	Results     []Result `json:"results"`
}

// benchmarks is the fixed suite RunAll executes.
var benchmarks = []struct {
	name string
	fn   func(*testing.B)
}{
	{"EngineSymmetricN3", func(b *testing.B) { EngineThroughput(b, 3, core.Symmetric) }},
	{"EngineSymmetricN9", func(b *testing.B) { EngineThroughput(b, 9, core.Symmetric) }},
	{"EngineAsymmetricN3", func(b *testing.B) { EngineThroughput(b, 3, core.Asymmetric) }},
	{"EngineAsymmetricN9", func(b *testing.B) { EngineThroughput(b, 9, core.Asymmetric) }},
	{"EngineAtomicN9", func(b *testing.B) { EngineThroughput(b, 9, core.Atomic) }},
	{"EngineHandleMessage", EngineHandleMessage},
	{"EngineArenaCycle", EngineArenaCycle},
	{"EnginePromptNull", EnginePromptNull},
	{"MetricsHotPath", MetricsHotPath},
	{"RingDisseminateN9", RingDisseminateN9},
	{"MembershipAgreement", MembershipAgreement},
	{"GroupFormation", GroupFormation},
	{"RSMCatchUp", RSMCatchUp},
	{"WALAppend", WALAppend},
	{"RecoverReplay", RecoverReplay},
	{"TCPSendRecv", TCPSendRecv},
	{"ClientRoundTrip", ClientRoundTrip},
}

// measure runs one benchmark body via testing.Benchmark and wraps the
// outcome — the single place the Result fields are computed, shared by
// RunAll (-perf) and RunOne (-perf-gate).
func measure(name string, fn func(*testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// RunAll executes the engine benchmark suite via testing.Benchmark and
// returns the results. progress (optional) receives one line per
// benchmark as it completes.
func RunAll(progress io.Writer) []Result {
	out := make([]Result, 0, len(benchmarks))
	for _, bm := range benchmarks {
		res := measure(bm.name, bm.fn)
		if progress != nil {
			fmt.Fprintf(progress, "%-22s %12.1f ns/op %8d B/op %6d allocs/op (n=%d)\n",
				res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
		}
		out = append(out, res)
	}
	return out
}

// RunOne executes a single benchmark from the suite by name.
func RunOne(name string) (Result, error) {
	for _, bm := range benchmarks {
		if bm.name == name {
			return measure(bm.name, bm.fn), nil
		}
	}
	return Result{}, fmt.Errorf("perf: unknown benchmark %q", name)
}

// GateCheck is one CI regression gate: a benchmark, the metric guarded,
// and the maximum allowed ratio versus the baseline report.
type GateCheck struct {
	Name   string
	Metric string // "ns/op" or "allocs/op"
	Factor float64
}

// DefaultGateChecks are the gates CI runs: the engine receive hot path and
// the two intake-pipeline benchmarks the zero-copy receive work targets.
// Allocation counts are the tight gates — they are stable run to run,
// while ns/op on shared CI machines swings with neighbour load — so the
// ns/op checks carry a looser factor that still catches a catastrophic
// regression without tripping on noise.
var DefaultGateChecks = []GateCheck{
	{Name: "EngineHandleMessage", Metric: "ns/op", Factor: 3},
	// The receive hot path allocates nothing per message; the factor-1
	// gate means a single new steady-state allocation fails CI.
	{Name: "EngineHandleMessage", Metric: "allocs/op", Factor: 1},
	// The arena work pins the n=9 hot loop's allocation count; 1.1 allows
	// a ±1 wobble on a ~23-alloc baseline, nothing more.
	{Name: "EngineSymmetricN9", Metric: "allocs/op", Factor: 1.1},
	{Name: "EngineArenaCycle", Metric: "allocs/op", Factor: 1.5},
	// Answering an inbound burst with a prompt null recycles the null
	// through the arena; factor 1 fails CI on any new allocation there.
	{Name: "EnginePromptNull", Metric: "allocs/op", Factor: 1},
	{Name: "RingDisseminateN9", Metric: "allocs/op", Factor: 2},
	// The metrics hot path is allocation-free by construction; with a
	// 0-alloc baseline, factor 1 means ANY steady-state allocation in a
	// counter/gauge/histogram update fails CI.
	{Name: "MetricsHotPath", Metric: "allocs/op", Factor: 1},
	{Name: "TCPSendRecv", Metric: "allocs/op", Factor: 2},
	{Name: "RSMCatchUp", Metric: "allocs/op", Factor: 2},
	{Name: "RSMCatchUp", Metric: "ns/op", Factor: 3},
	// The WAL append runs once per acked write; its handful of per-entry
	// frame allocations must not grow. Recovery's allocation count scales
	// with the recovered entry count (fixed at 4096 here), so a ratio
	// regression means a per-entry cost was added to the replay scan.
	{Name: "WALAppend", Metric: "allocs/op", Factor: 1.5},
	{Name: "RecoverReplay", Metric: "allocs/op", Factor: 1.5},
}

// GateAll re-measures every benchmark named by checks (each once, even if
// checked on several metrics) and fails if any metric regressed past its
// factor versus the baseline report. All checks are evaluated; the error
// aggregates every failure. The fresh measurements are returned in check
// order for logging.
func GateAll(baseline *Report, checks []GateCheck) ([]Result, error) {
	byName := make(map[string]*Result, len(baseline.Results))
	for i := range baseline.Results {
		byName[baseline.Results[i].Name] = &baseline.Results[i]
	}
	measured := make(map[string]Result, len(checks))
	var out []Result
	var failures []string
	for _, ck := range checks {
		base, ok := byName[ck.Name]
		if !ok {
			return out, fmt.Errorf("perf: baseline has no entry for %q", ck.Name)
		}
		got, ok := measured[ck.Name]
		if !ok {
			var err error
			if got, err = RunOne(ck.Name); err != nil {
				return out, err
			}
			measured[ck.Name] = got
		}
		out = append(out, got)
		switch ck.Metric {
		case "ns/op":
			if limit := base.NsPerOp * ck.Factor; got.NsPerOp > limit {
				failures = append(failures, fmt.Sprintf("%s regressed: %.1f ns/op > %.1fx baseline %.1f ns/op",
					ck.Name, got.NsPerOp, ck.Factor, base.NsPerOp))
			}
		case "allocs/op":
			if limit := float64(base.AllocsPerOp) * ck.Factor; float64(got.AllocsPerOp) > limit {
				failures = append(failures, fmt.Sprintf("%s regressed: %d allocs/op > %.1fx baseline %d allocs/op",
					ck.Name, got.AllocsPerOp, ck.Factor, base.AllocsPerOp))
			}
		default:
			return out, fmt.Errorf("perf: unknown gate metric %q", ck.Metric)
		}
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("perf: %s", strings.Join(failures, "; "))
	}
	return out, nil
}

// NewReport wraps results in the BENCH_core.json envelope.
func NewReport(results []Result) *Report {
	return &Report{
		Schema:      1,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Results:     results,
	}
}

// MergeBaseline attaches the measurements of a previous report (by
// benchmark name) as the Baseline of each matching result, so a written
// report records before/after in one file.
func MergeBaseline(results []Result, prev *Report, note string) {
	byName := make(map[string]Result, len(prev.Results))
	for _, r := range prev.Results {
		byName[r.Name] = r
	}
	for i := range results {
		if p, ok := byName[results[i].Name]; ok {
			results[i].Baseline = &Baseline{
				NsPerOp:     p.NsPerOp,
				BytesPerOp:  p.BytesPerOp,
				AllocsPerOp: p.AllocsPerOp,
				Note:        note,
			}
		}
	}
}

// LoadReport reads a previously written BENCH_core.json.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	return &r, nil
}

// WriteReport writes the report as indented JSON.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
