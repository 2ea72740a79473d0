package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/workload"
)

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAndCollect(t *testing.T) {
	groups := workload.SingleGroup(3, core.Symmetric)
	r, err := NewRun(3, groups, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Apply(workload.UniformTraffic(groups, 2, 2))
	ok := r.Cluster.RunUntil(30*time.Second, func() bool {
		for _, p := range r.Cluster.Processes() {
			if len(r.Cluster.History(p).Deliveries) < 6 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("run never completed")
	}
	m := r.Collect()
	if m.Delivered != 18 {
		t.Errorf("Delivered = %d, want 18", m.Delivered)
	}
	if m.DataSent != 6 {
		t.Errorf("DataSent = %d, want 6", m.DataSent)
	}
	if m.MeanLatency <= 0 || m.MaxLatency < m.MeanLatency {
		t.Errorf("latencies implausible: mean=%v max=%v", m.MeanLatency, m.MaxLatency)
	}
	if m.Bytes == 0 || m.Messages == 0 {
		t.Error("byte/message accounting missing")
	}
	if m.MsgsPerDelivery() <= 0 || m.HeaderBytesPerMsg() <= 0 {
		t.Error("derived metrics zero")
	}
}

func TestC1HeaderOverheadShape(t *testing.T) {
	tab := C1HeaderOverhead([]int{3, 8, 32, 128})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Newtop column constant; vector clock column strictly increasing and
	// eventually far larger.
	nt0 := tab.Rows[0][1]
	prevVC := 0
	for i, row := range tab.Rows {
		if row[1] != nt0 {
			t.Errorf("newtop header not constant: row %d = %s vs %s", i, row[1], nt0)
		}
		vc, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if vc <= prevVC {
			t.Errorf("vector clock header not increasing at row %d", i)
		}
		prevVC = vc
	}
	nt, _ := strconv.Atoi(nt0)
	if prevVC < 4*nt {
		t.Errorf("at n=128 the vector clock header (%d) should dwarf newtop's (%d)", prevVC, nt)
	}
}

func TestC2Small(t *testing.T) {
	tab, err := C2SymVsAsym([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestC3Shape(t *testing.T) {
	tab, err := C3SendBlocking()
	if err != nil {
		t.Fatal(err)
	}
	// Share 0% must have zero blocked sends; higher shares nonzero is
	// workload-dependent, but 100% row exists.
	if tab.Rows[0][1] != "0" {
		t.Errorf("symmetric-only run blocked %s sends, want 0", tab.Rows[0][1])
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestC5FormationSmall(t *testing.T) {
	tab, err := C5Formation([]int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestC6MembershipSmall(t *testing.T) {
	tab, err := C6Membership([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestC7Small(t *testing.T) {
	tab, err := C7VsPropagationGraph([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestC8Small(t *testing.T) {
	tab, err := C8CyclicGroups([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Rows[0][4]; got != "true" {
		t.Errorf("cyclic run order OK = %s", got)
	}
}

func TestC9Shape(t *testing.T) {
	tab, err := C9FlowControl()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1] != "0" {
		t.Errorf("window=0 run flow-blocked %s times, want 0", tab.Rows[0][1])
	}
}

func TestScenarios(t *testing.T) {
	if _, err := F1Migration(); err != nil {
		t.Errorf("F1: %v", err)
	}
	if _, err := F3AtomicVsTotal(); err != nil {
		t.Errorf("F3: %v", err)
	}
	if _, err := X1JointFailure(); err != nil {
		t.Errorf("X1: %v", err)
	}
	if _, err := X2CausalChain(); err != nil {
		t.Errorf("X2: %v", err)
	}
	if _, err := X3ConcurrentViews(); err != nil {
		t.Errorf("X3: %v", err)
	}
}

// TestReplicationScenarios runs the rsm-layer stories: catch-up into a
// loaded group (R1), digest-based divergence detection (R2) and
// digest-diff reconciliation into a merged successor group (R3). Each
// asserts its own acceptance conditions internally (chunked snapshot,
// non-empty replay tail, digest equality / inequality, deterministic
// merge outcome).
func TestReplicationScenarios(t *testing.T) {
	if _, err := R1ReplicaCatchUp(); err != nil {
		t.Errorf("R1: %v", err)
	}
	if _, err := R2PartitionDivergence(); err != nil {
		t.Errorf("R2: %v", err)
	}
	if _, err := R3PartitionReconciliation(); err != nil {
		t.Errorf("R3: %v", err)
	}
}

// TestClientFailoverScenario runs the externally-driven workload (R4):
// real daemons over memnet, a real client over loopback TCP, sustained
// load across a daemon kill and a partition→heal→reconcile cycle. The
// scenario asserts its own acceptance bar internally (zero acked-write
// loss, read-your-writes across failover, old groups quiet).
func TestClientFailoverScenario(t *testing.T) {
	if _, err := R4ClientFailover(); err != nil {
		t.Errorf("R4: %v", err)
	}
}

// TestShardMoveScenario runs the live shard-range move workload (R5): a
// sharded fleet under background writes while one arc of the
// keyspace migrates to a freshly formed group. The scenario asserts its
// own acceptance bar internally (zero acked-write loss, read-your-writes
// across the epoch bump, the session re-routes itself, drops explained).
func TestShardMoveScenario(t *testing.T) {
	if _, err := R5ShardMove(); err != nil {
		t.Errorf("R5: %v", err)
	}
}

// TestCrashRecoveryScenario runs the durability workload (R6): daemons
// with WALs under background writes, one killed -9 and restarted from its
// data dir. The scenario asserts its own acceptance bar internally (zero
// acked-write loss verified at the restarted daemon, local replay, fast-
// path rejoin with no snapshot transfer, drops explained).
func TestCrashRecoveryScenario(t *testing.T) {
	if _, err := R6CrashRecovery(); err != nil {
		t.Errorf("R6: %v", err)
	}
}
