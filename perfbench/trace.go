package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"newtop"
	"newtop/internal/obs"
)

// span is one timed call the benchmark made into the program (or one
// instant it observed, when End equals Start). Spans of one operation
// share its ID; ID is -1 for calls that belong to no operation.
type span struct {
	Name       string
	ID         int64
	Proc       int // process ID, session index or 0
	Start, End time.Time
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced episodes pass nil.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(name string, id int64, proc int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name, id, proc, start, end})
	l.mu.Unlock()
}

// write dumps the spans as tab-separated lines: name, op id, process,
// start and end in nanoseconds since the first span.
func (l *spanLog) write(path string) error {
	if l == nil || len(l.spans) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t0 := l.spans[0].Start
	fmt.Fprintln(w, "name\top\tproc\tstart_ns\tend_ns")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.Name, s.ID, s.Proc, s.Start.Sub(t0), s.End.Sub(t0))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceBook merges the stage traces each process retains, keyed by
// process and message. Processes evict old traces, so the book is filled
// by polling while the load runs; a later copy of a trace only adds stamps.
type traceBook struct {
	mu     sync.Mutex
	byProc map[newtop.ProcessID]map[obs.TraceKey]newtop.Trace
}

func newTraceBook() *traceBook {
	return &traceBook{byProc: map[newtop.ProcessID]map[obs.TraceKey]newtop.Trace{}}
}

func (b *traceBook) collect(id newtop.ProcessID, p *newtop.Process) {
	trs := p.Traces()
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byProc[id]
	if m == nil {
		m = map[obs.TraceKey]newtop.Trace{}
		b.byProc[id] = m
	}
	for _, t := range trs {
		old := m[t.Key]
		for s := range t.Stamps {
			if old.Stamps[s].IsZero() {
				old.Stamps[s] = t.Stamps[s]
			}
		}
		old.Key = t.Key
		m[t.Key] = old
	}
}

// poll collects every process's traces each interval until stop closes,
// then once more. It returns when the last collection is done.
func (b *traceBook) poll(procs map[newtop.ProcessID]*newtop.Process, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-stop:
			for id, p := range procs {
				b.collect(id, p)
			}
			return
		}
		for id, p := range procs {
			b.collect(id, p)
		}
	}
}

// gap is the time between two stamps of one trace, and whether both exist.
func gap(t newtop.Trace, from, to obs.Stage) (time.Duration, bool) {
	a, b := t.Stamps[from], t.Stamps[to]
	if a.IsZero() || b.IsZero() {
		return 0, false
	}
	return b.Sub(a), true
}

// stageGaps returns, over every kept trace of every process, the from→to
// gap in milliseconds.
func (b *traceBook) stageGaps(from, to obs.Stage, keep func(obs.TraceKey) bool) []float64 {
	var out []float64
	for _, m := range b.byProc {
		for k, t := range m {
			if !keep(k) {
				continue
			}
			if d, ok := gap(t, from, to); ok {
				out = append(out, ms(d))
			}
		}
	}
	return out
}

// networkGaps returns origin send → peer receive of every kept message,
// joined by message key.
func (b *traceBook) networkGaps(keep func(obs.TraceKey) bool) []float64 {
	var out []float64
	for id, m := range b.byProc {
		for k, t := range m {
			if k.Origin == id || !keep(k) || t.Stamps[obs.StageReceive].IsZero() {
				continue
			}
			o, ok := b.byProc[k.Origin][k]
			if !ok || o.Stamps[obs.StageSend].IsZero() {
				continue
			}
			out = append(out, ms(t.Stamps[obs.StageReceive].Sub(o.Stamps[obs.StageSend])))
		}
	}
	return out
}

// count is how many traces the book holds.
func (b *traceBook) count() int {
	n := 0
	for _, m := range b.byProc {
		n += len(m)
	}
	return n
}
