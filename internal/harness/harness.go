// Package harness runs the repository's experiments: it wires workloads
// into deterministic simulations, collects the metrics the paper's
// comparative claims are about (messages, bytes, null overhead, delivery
// latency, agreement latency), and formats result tables. Both the bench
// targets in bench_test.go and cmd/newtop-bench are thin wrappers around
// this package.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"newtop/internal/core"
	"newtop/internal/sim"
	"newtop/internal/types"
	"newtop/internal/wire"
	"newtop/internal/workload"
)

// Params tunes an experiment run.
type Params struct {
	Seed       int64
	Omega      time.Duration // default 20ms
	LatencyMin time.Duration // default 1ms
	LatencyMax time.Duration // default 3ms
	FlowWindow int
	StaticMode bool // disable failure detection (§4 failure-free runs)
}

func (p Params) withDefaults() Params {
	if p.Omega <= 0 {
		p.Omega = 20 * time.Millisecond
	}
	if p.LatencyMin <= 0 {
		p.LatencyMin = 1 * time.Millisecond
	}
	if p.LatencyMax <= p.LatencyMin {
		p.LatencyMax = p.LatencyMin + 2*time.Millisecond
	}
	return p
}

// Run is a configured simulation with its workload applied.
type Run struct {
	Cluster *sim.Cluster
	Groups  []workload.Group
	Params  Params
	nprocs  int
}

// NewRun builds a cluster of nprocs processes with the given groups
// bootstrapped and byte accounting enabled.
func NewRun(nprocs int, groups []workload.Group, p Params) (*Run, error) {
	p = p.withDefaults()
	c := sim.New(p.Seed, sim.WithLatency(p.LatencyMin, p.LatencyMax))
	c.CountBytes(wire.Size)
	for i := 1; i <= nprocs; i++ {
		c.AddProcess(core.Config{
			Self:                    types.ProcessID(i),
			Omega:                   p.Omega,
			FlowControlWindow:       p.FlowWindow,
			DisableFailureDetection: p.StaticMode,
		})
	}
	for _, g := range groups {
		if err := c.Bootstrap(g.ID, g.Mode, g.Members); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	return &Run{Cluster: c, Groups: groups, Params: p, nprocs: nprocs}, nil
}

// Apply schedules the workload submissions.
func (r *Run) Apply(subs []workload.Submission) {
	for _, s := range subs {
		s := s
		r.Cluster.At(time.Duration(s.AtMillis)*time.Millisecond, func() {
			_ = r.Cluster.Submit(s.From, s.Group, s.Payload)
		})
	}
}

// Metrics aggregates a run's outcome.
type Metrics struct {
	Messages     uint64        // point-to-point transmissions
	Bytes        uint64        // wire bytes
	DataSent     uint64        // application multicasts
	Nulls        uint64        // time-silence nulls
	Ctrl         uint64        // membership/formation multicasts
	Delivered    uint64        // application deliveries (all processes)
	MeanLatency  time.Duration // submit → delivery, averaged over (msg, receiver)
	MaxLatency   time.Duration
	BlockedSends uint64
	FlowBlocked  uint64
	ViewChanges  uint64
}

// Collect computes metrics after the run has quiesced. Latency pairs every
// submission with each delivery of the same payload.
func (r *Run) Collect() Metrics {
	var m Metrics
	c := r.Cluster
	m.Messages = c.TotalMessages()
	m.Bytes = c.TotalBytes()
	submitAt := make(map[string]time.Time)
	for _, p := range c.Processes() {
		st := c.Engine(p).Stats()
		m.DataSent += st.DataSent
		m.Nulls += st.NullsSent
		m.Ctrl += st.CtrlSent
		m.Delivered += st.Delivered
		m.BlockedSends += st.BlockedSends
		m.FlowBlocked += st.FlowBlocked
		m.ViewChanges += st.ViewChanges
		for _, ev := range c.History(p).Events {
			if ev.Kind == sim.EvSubmit {
				submitAt[string(ev.Payload)] = ev.At
			}
		}
	}
	var total time.Duration
	var count int64
	for _, p := range c.Processes() {
		for _, d := range c.History(p).Deliveries {
			t0, ok := submitAt[string(d.Payload)]
			if !ok {
				continue
			}
			lat := d.At.Sub(t0)
			total += lat
			count++
			if lat > m.MaxLatency {
				m.MaxLatency = lat
			}
		}
	}
	if count > 0 {
		m.MeanLatency = total / time.Duration(count)
	}
	return m
}

// MsgsPerDelivery returns transmissions per application delivery, the
// paper-style normalised message cost.
func (m Metrics) MsgsPerDelivery() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.Messages) / float64(m.Delivered)
}

// HeaderBytesPerMsg returns average wire bytes per transmission.
func (m Metrics) HeaderBytesPerMsg() float64 {
	if m.Messages == 0 {
		return 0
	}
	return float64(m.Bytes) / float64(m.Messages)
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, cell)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// ms formats a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
