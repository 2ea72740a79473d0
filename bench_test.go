// Benchmarks regenerating every figure, worked example and comparative
// claim of the Newtop paper (the experiment index is
// internal/harness/experiments.go). Each benchmark runs the
// corresponding harness experiment — a deterministic virtual-time
// simulation — and reports the headline metric via b.ReportMetric, so the
// series shape is visible straight from `go test -bench`.
//
// Full tables (all rows and columns) are printed by cmd/newtop-bench.
package newtop_test

import (
	"strconv"
	"testing"

	"newtop/internal/harness"
)

func atof(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// BenchmarkF1Migration regenerates fig. 1: online server migration via
// overlapping groups. Metric: the largest service gap (ms) observed at the
// surviving replica while the migration ran.
func BenchmarkF1Migration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.F1Migration()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(atof(b, tab.Rows[1][1]), "max-gap-ms")
	}
}

// BenchmarkF2CausalChain regenerates fig. 2 (same scenario as X2): the
// causal chain across four overlapping groups under a permanent
// partition. Metric: how long MD5' made the final delivery wait for the
// view change.
func BenchmarkF2CausalChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.X2CausalChain()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(atof(b, tab.Rows[0][1]), "m4-wait-ms")
	}
}

// BenchmarkF3AtomicVsTotal regenerates fig. 3's layering claim: atomic
// delivery bypasses the ordering gate. Metric: latency ratio
// total-order/atomic (should exceed 1).
func BenchmarkF3AtomicVsTotal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.F3AtomicVsTotal()
		if err != nil {
			b.Fatal(err)
		}
		atomic := atof(b, tab.Rows[0][1])
		total := atof(b, tab.Rows[1][1])
		b.ReportMetric(total/atomic, "total/atomic-lat")
	}
}

// BenchmarkX1JointFailure regenerates §5 example 1. Metric: orphan
// deliveries (must be 0).
func BenchmarkX1JointFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.X1JointFailure()
		if err != nil {
			b.Fatal(err)
		}
		if tab.Rows[1][1] != "0 (want 0)" {
			b.Fatalf("orphans: %s", tab.Rows[1][1])
		}
		b.ReportMetric(0, "orphans")
	}
}

// BenchmarkX2PartitionExclusion regenerates §5 example 2. Metric: time
// from partition to the MD5'-gated delivery.
func BenchmarkX2PartitionExclusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.X2CausalChain()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(atof(b, tab.Rows[1][1]), "partition-to-dlv-ms")
	}
}

// BenchmarkX3ConcurrentViews regenerates §5 example 3. Metric:
// stabilisation time of the concurrent subgroup views (plain variant).
func BenchmarkX3ConcurrentViews(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.X3ConcurrentViews()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(atof(b, tab.Rows[0][4]), "stabilise-ms")
	}
}

// BenchmarkC1HeaderOverhead regenerates the §6 header-size comparison.
// Metric: vector-clock/newtop header ratio at n=128.
func BenchmarkC1HeaderOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.C1HeaderOverhead([]int{3, 8, 16, 32, 64, 128})
		last := tab.Rows[len(tab.Rows)-1]
		b.ReportMetric(atof(b, last[4]), "vc/newtop@128")
	}
}

// BenchmarkC2SymVsAsym regenerates the §4.1-vs-§4.2 comparison. Metric:
// asymmetric/symmetric message-count ratio at n=9 (asymmetric wins as n
// grows for sparse senders).
func BenchmarkC2SymVsAsym(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C2SymVsAsym([]int{3, 5, 9})
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		sym, asym := atof(b, last[1]), atof(b, last[2])
		b.ReportMetric(asym/sym, "asym/sym-msgs@9")
	}
}

// BenchmarkC3SendBlocking regenerates the §4.3/§7 blocking claim. Metric:
// blocked sends in the symmetric-only run (must be 0).
func BenchmarkC3SendBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C3SendBlocking()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(atof(b, tab.Rows[0][1]), "sym-only-blocked")
		// The 50% row interleaves groups, which is where the §4.3 rule
		// bites; the 100% row is single-group asymmetric, which never
		// blocks (the rule only spans *different* groups).
		b.ReportMetric(atof(b, tab.Rows[2][1]), "mixed50-blocked")
	}
}

// BenchmarkC4TimeSilence regenerates the §4.1 null-overhead sweep.
// Metric: nulls per data message in the worst cell (largest spacing,
// smallest ω).
func BenchmarkC4TimeSilence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C4TimeSilence()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range tab.Rows {
			if v := atof(b, row[2]); v > worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "max-nulls/data")
	}
}

// BenchmarkC5Formation regenerates the §5.3 formation-cost sweep. Metric:
// control messages for a 9-member formation.
func BenchmarkC5Formation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C5Formation([]int{3, 5, 9})
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		b.ReportMetric(atof(b, last[1]), "ctrl-msgs@9")
	}
}

// BenchmarkC6MembershipAgreement regenerates the §5.2 crash-to-view
// latency sweep. Metric: detect+agree latency (ms) at n=9.
func BenchmarkC6MembershipAgreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C6Membership([]int{3, 5, 9})
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		b.ReportMetric(atof(b, last[1]), "detect+agree-ms@9")
	}
}

// BenchmarkC7VsPropagationGraph regenerates the §6 comparison against
// Garcia-Molina/Spauster. Metric: the propagation-graph master's load on
// an 8-group chain (Newtop has no such hot spot).
func BenchmarkC7VsPropagationGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C7VsPropagationGraph([]int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		b.ReportMetric(atof(b, last[4]), "pg-master-load@8")
		b.ReportMetric(atof(b, last[2]), "nt-max-send@8")
	}
}

// BenchmarkC8CyclicGroups regenerates the §6 cyclic-overlap claim.
// Metric: mean delivery latency (ms) on a 6-group ring; ordering checked.
func BenchmarkC8CyclicGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C8CyclicGroups([]int{3, 6})
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		if last[4] != "true" {
			b.Fatal("ordering violated on cyclic structure")
		}
		b.ReportMetric(atof(b, last[2]), "lat-ms@ring6")
	}
}

// BenchmarkC9FlowControl regenerates the §7/[11] flow-control behaviour.
// Metric: burst completion time (ms) with window 4 vs unlimited.
func BenchmarkC9FlowControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.C9FlowControl()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(atof(b, tab.Rows[0][2]), "nolimit-ms")
		b.ReportMetric(atof(b, tab.Rows[1][2]), "window4-ms")
	}
}
