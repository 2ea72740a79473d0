// Command newtop-bench regenerates every experiment table of the Newtop
// reproduction: the paper's figures (F1–F3), worked examples (X1–X3),
// comparative claims (C1–C9) and the replicated-state-machine scenarios
// (R1–R3). `newtop-bench -list` prints the index; each table's title
// names the claim it checks.
//
// Usage:
//
//	newtop-bench            # run everything
//	newtop-bench C1 C2 X3   # run selected experiments
//	newtop-bench -list      # list experiment IDs
//
// Engine micro-benchmarks (machine-readable, for the perf trajectory):
//
//	newtop-bench -perf                          # run, print, write BENCH_core.json
//	newtop-bench -perf -perf-out results.json   # choose the output path
//	newtop-bench -perf -perf-baseline old.json  # record before/after in one file
//
// CI regression gate (re-measures the default check set versus the
// checked-in report and fails when any check passes its factor: ns/op
// at 3x, allocs/op at factors of 1 to 2 per benchmark):
//
//	newtop-bench -perf-gate BENCH_core.json
//
// End-to-end latency, failover and their per-layer budget are measured by
// the repository benchmark (perfbench/, see its README), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"newtop/internal/harness"
	"newtop/internal/perf"
)

type experiment struct {
	id   string
	desc string
	run  func() (*harness.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"F1", "fig.1 online server migration", harness.F1Migration},
		{"F2", "fig.2 causal chain across overlapping groups (alias of X2)", harness.X2CausalChain},
		{"F3", "fig.3 atomic delivery vs total order", harness.F3AtomicVsTotal},
		{"R1", "rsm replica catch-up into a loaded group", harness.R1ReplicaCatchUp},
		{"R2", "rsm divergence detection across a healed partition", harness.R2PartitionDivergence},
		{"R3", "rsm partition reconciliation: digest diff → merged successor group", harness.R3PartitionReconciliation},
		{"R4", "client routing & failover under daemon kill + partition/heal (wall clock)", harness.R4ClientFailover},
		{"R5", "live shard-range move under background writes: zero acked-write loss, epoch re-route (wall clock)", harness.R5ShardMove},
		{"R6", "kill -9 + WAL recovery under background writes: zero acked-write loss, reconcile fast-path rejoin (wall clock)", harness.R6CrashRecovery},
		{"X1", "§5 ex.1 joint failure, orphan erased", harness.X1JointFailure},
		{"X2", "§5 ex.2 MD5' partition exclusion", harness.X2CausalChain},
		{"X3", "§5 ex.3 concurrent subgroup views", harness.X3ConcurrentViews},
		{"C1", "§6 header overhead vs vector clocks", func() (*harness.Table, error) {
			return harness.C1HeaderOverhead([]int{3, 5, 9, 17, 33, 65, 129}), nil
		}},
		{"C2", "§4 symmetric vs asymmetric", func() (*harness.Table, error) {
			return harness.C2SymVsAsym([]int{3, 5, 9, 17})
		}},
		{"C3", "§4.3 send blocking by asymmetric share", harness.C3SendBlocking},
		{"C4", "§4.1 null overhead (prompt + time-silence)", harness.C4TimeSilence},
		{"C5", "§5.3 group formation cost", func() (*harness.Table, error) {
			return harness.C5Formation([]int{3, 5, 9, 17, 33})
		}},
		{"C6", "§5.2 membership agreement latency", func() (*harness.Table, error) {
			return harness.C6Membership([]int{3, 5, 9, 17})
		}},
		{"C7", "§6 vs Garcia-Molina/Spauster propagation graph", func() (*harness.Table, error) {
			return harness.C7VsPropagationGraph([]int{2, 4, 8, 16})
		}},
		{"C8", "§6 cyclic overlapping groups", func() (*harness.Table, error) {
			return harness.C8CyclicGroups([]int{3, 6, 12})
		}},
		{"C9", "§7 flow control", harness.C9FlowControl},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "newtop-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("newtop-bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	perfRun := fs.Bool("perf", false, "run the engine micro-benchmarks and emit machine-readable results")
	perfOut := fs.String("perf-out", "BENCH_core.json", "output path for -perf results")
	perfBase := fs.String("perf-baseline", "", "previous -perf report whose numbers are recorded as the baseline")
	perfNote := fs.String("perf-baseline-note", "", "note attached to the merged baseline entries")
	gate := fs.String("perf-gate", "", "re-measure the gated benchmarks against this baseline report and fail on regression (CI)")
	gateBench := fs.String("perf-gate-bench", "", "gate only this benchmark (ns/op) instead of the default check set")
	gateFactor := fs.Float64("perf-gate-factor", 2.0, "maximum allowed ratio versus the baseline (overrides every default check's factor when set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gateFactorSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "perf-gate-factor" {
			gateFactorSet = true
		}
	})
	if *gate != "" {
		baseline, err := perf.LoadReport(*gate)
		if err != nil {
			return fmt.Errorf("load gate baseline: %w", err)
		}
		checks := make([]perf.GateCheck, len(perf.DefaultGateChecks))
		copy(checks, perf.DefaultGateChecks)
		if gateFactorSet {
			for i := range checks {
				checks[i].Factor = *gateFactor
			}
		}
		if *gateBench != "" {
			checks = []perf.GateCheck{{Name: *gateBench, Metric: "ns/op", Factor: *gateFactor}}
		}
		results, err := perf.GateAll(baseline, checks)
		if err != nil {
			return err
		}
		for i, ck := range checks {
			switch ck.Metric {
			case "allocs/op":
				fmt.Printf("perf gate ok: %s %d allocs/op within %.1fx of baseline\n", ck.Name, results[i].AllocsPerOp, ck.Factor)
			default:
				fmt.Printf("perf gate ok: %s %.1f ns/op within %.1fx of baseline\n", ck.Name, results[i].NsPerOp, ck.Factor)
			}
		}
		return nil
	}
	if *perfRun {
		return runPerf(*perfOut, *perfBase, *perfNote)
	}
	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return nil
	}
	want := fs.Args()
	selected := exps
	if len(want) > 0 {
		byID := make(map[string]experiment, len(exps))
		for _, e := range exps {
			byID[strings.ToUpper(e.id)] = e
		}
		selected = selected[:0]
		sort.Strings(want)
		for _, id := range want {
			e, ok := byID[strings.ToUpper(id)]
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}
	fmt.Printf("Newtop reproduction — experiment tables (%d experiments)\n", len(selected))
	fmt.Printf("All runs are deterministic virtual-time simulations; wall time shown per table.\n\n")
	for _, e := range selected {
		start := time.Now()
		tab, err := e.run()
		if err != nil {
			if tab != nil {
				tab.Fprint(os.Stdout)
			}
			return fmt.Errorf("%s: %w", e.id, err)
		}
		tab.Notes = append(tab.Notes, fmt.Sprintf("computed in %v wall time", time.Since(start).Round(time.Millisecond)))
		tab.Fprint(os.Stdout)
	}
	return nil
}

// runPerf executes the engine micro-benchmark suite via testing.Benchmark
// (the identical bodies back `go test -bench Engine ./internal/core`) and
// writes BENCH_core.json: name, ns/op, B/op, allocs/op per benchmark,
// optionally carrying a prior report's numbers as the baseline so one file
// records before/after.
func runPerf(out, baselinePath, note string) error {
	// Validate the baseline before spending a minute benchmarking.
	var prev *perf.Report
	if baselinePath != "" {
		var err error
		if prev, err = perf.LoadReport(baselinePath); err != nil {
			return fmt.Errorf("load baseline: %w", err)
		}
	}
	fmt.Println("Newtop engine micro-benchmarks (testing.Benchmark, default benchtime)")
	results := perf.RunAll(os.Stdout)
	if prev != nil {
		perf.MergeBaseline(results, prev, note)
	}
	report := perf.NewReport(results)
	if err := perf.WriteReport(out, report); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", out, len(results))
	return nil
}
