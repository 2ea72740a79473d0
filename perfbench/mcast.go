package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"newtop"
	"newtop/internal/obs"
)

// mcastShape is a bare-process multicast workload: members processes in
// one symmetric group, payloads of size bytes submitted open loop at rate
// per second, round-robin over the members.
type mcastShape struct {
	name       string
	members    int
	size       int
	rate       float64
	traceEvery uint64 // tracer sampling in traced episodes
}

var (
	mcastLoad = mcastShape{name: "mcast-load", members: 3, size: 128, rate: 3000, traceEvery: 32}
	mcastRing = mcastShape{name: "mcast-ring", members: 5, size: 16 << 10, rate: 400, traceEvery: 4}
)

const (
	// mcastQuiet is the gap before the crash: nothing is in flight when
	// the last member dies, so every submitted payload must arrive.
	mcastQuiet = 50 * time.Millisecond
	mcastTail  = time.Second
	// helloBit marks the set-up multicasts in the payload header.
	helloBit = 1 << 63
)

// memberLog is what one member delivered. Only its drain goroutine writes
// it until the process is closed.
type memberLog struct {
	at      []int64 // delivery time (unix ns) by op index; 0 if not delivered
	order   []int32 // op indices in delivery order
	count   atomic.Int64
	hellos  atomic.Int64
	bad     string
	samples []recvSample // deliveries of traced message numbers
}

type recvSample struct {
	key obs.TraceKey
	op  int
	at  time.Time
}

type mcastFleet struct {
	ids    []newtop.ProcessID
	p      []*newtop.Process
	closed []bool
	logs   []*memberLog
	ev     *evLog
	setup  time.Duration
	wg     sync.WaitGroup // drain and event goroutines
	spans  *spanLog
}

// closeProc stops process i; Close sends no leave, so to the others it is
// a silent crash.
func (f *mcastFleet) closeProc(i int) {
	s := time.Now()
	_ = f.p[i].Close() // the Close error of a stopped process changes nothing here
	f.spans.add("process.Close", -1, int(f.ids[i]), s, time.Now())
	f.closed[i] = true
}

func (f *mcastFleet) close() {
	for i := range f.p {
		if !f.closed[i] {
			f.closeProc(i)
		}
	}
	f.wg.Wait()
}

func payloadOf(ep, i int, pool [][]byte, o op) []byte {
	b := append([]byte(nil), pool[o.Pay]...)
	binary.BigEndian.PutUint64(b, uint64(opID(ep, i)))
	return b
}

// startMcast boots the processes and times set-up from the first process
// start until every member's first multicast is delivered everywhere.
func startMcast(sh mcastShape, ep int, ops []op, pool [][]byte, traced bool, spans *spanLog) (*mcastFleet, error) {
	addrs, err := reservePorts(sh.members)
	if err != nil {
		return nil, err
	}
	f := &mcastFleet{ev: &evLog{spans: spans}, spans: spans}
	for i := 0; i < sh.members; i++ {
		f.ids = append(f.ids, newtop.ProcessID(i+1))
	}
	var sample uint64
	keep := 0
	if traced {
		sample, keep = sh.traceEvery, 1<<20 // keep every sampled trace
	}
	t0 := time.Now()
	for i, id := range f.ids {
		peers := map[newtop.ProcessID]string{}
		for j, pid := range f.ids {
			if j != i {
				peers[pid] = addrs[j]
			}
		}
		s := time.Now()
		p, err := newtop.Start(newtop.Config{
			Self: id, ListenAddr: addrs[i], Peers: peers, Omega: omega,
			RingThreshold: ringThreshold, RingPullAfter: ringPullAfter,
			TraceSampleEvery: sample, TraceKeep: keep,
		})
		spans.add("process.Start", -1, int(id), s, time.Now())
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start process: %w", err)
		}
		f.p, f.closed = append(f.p, p), append(f.closed, false)
		ml := &memberLog{at: make([]int64, len(ops))}
		f.logs = append(f.logs, ml)
		f.wg.Add(2)
		go func() {
			defer f.wg.Done()
			for ev := range p.Events() {
				f.ev.add(id, ev)
			}
		}()
		go func() {
			defer f.wg.Done()
			drainMember(p, id, ml, sh, ep, ops, pool, sample, spans)
		}()
	}
	for _, p := range f.p {
		if err := p.BootstrapGroup(1, newtop.Symmetric, f.ids); err != nil {
			f.close()
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
	}
	for i, p := range f.p {
		hello := append([]byte(nil), pool[0]...)
		binary.BigEndian.PutUint64(hello, helloBit|uint64(i))
		if err := p.Submit(1, hello); err != nil {
			f.close()
			return nil, fmt.Errorf("first multicast: %w", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, ml := range f.logs {
		for ml.hellos.Load() < int64(sh.members) {
			if time.Now().After(deadline) {
				f.close()
				return nil, fmt.Errorf("set-up multicasts never delivered")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	f.setup = time.Since(t0)
	return f, nil
}

// drainMember consumes one member's deliveries until the process closes,
// checking every payload byte.
func drainMember(p *newtop.Process, id newtop.ProcessID, ml *memberLog, sh mcastShape, ep int, ops []op, pool [][]byte, sample uint64, spans *spanLog) {
	for d := range p.Deliveries() {
		now := time.Now()
		if ml.bad != "" {
			continue
		}
		if len(d.Payload) != sh.size {
			ml.bad = fmt.Sprintf("P%d delivered a %d B payload", id, len(d.Payload))
			continue
		}
		h := binary.BigEndian.Uint64(d.Payload)
		if h&helloBit != 0 {
			ml.hellos.Add(1)
			continue
		}
		i := int(h & 0xffffffff)
		switch {
		case int(h>>32) != ep || i >= len(ops):
			ml.bad = fmt.Sprintf("P%d delivered an unknown payload %x", id, h)
		case !bytes.Equal(d.Payload[8:], pool[ops[i].Pay][8:]):
			ml.bad = fmt.Sprintf("P%d delivered op %d corrupted", id, i)
		case ml.at[i] != 0:
			ml.bad = fmt.Sprintf("P%d delivered op %d twice", id, i)
		default:
			ml.at[i] = now.UnixNano()
			ml.order = append(ml.order, int32(i))
			ml.count.Add(1)
			if sample > 0 && uint64(d.Num)%sample == 0 {
				ml.samples = append(ml.samples, recvSample{obs.TraceKey{Group: d.Group, Origin: d.Sender, Num: d.Num}, i, now})
			}
			spans.add("deliver", opID(ep, i), int(id), now, now)
		}
	}
}

func runMcast(rc runConfig, sh mcastShape) (*result, error) {
	res := &result{}
	acc := &layerAcc{}
	pool := payloadPool(rc.seed, 64, sh.size)
	var spans *spanLog
	if rc.trace {
		spans = &spanLog{}
	}
	for i := range extraSetups {
		f, err := startMcast(sh, episodes+i, nil, pool, false, nil)
		if err != nil {
			return nil, err
		}
		if !rc.trace {
			res.pools[0].setup = append(res.pools[0].setup, f.setup.Seconds())
		}
		f.close()
	}
	for ep := 0; ep < episodes; ep++ {
		if err := mcastEpisode(rc, sh, ep, pool, res, acc, spans); err != nil {
			return nil, err
		}
	}
	if rc.trace {
		res.layers = acc.metrics(sh.name+" deliveries", res.pools)
		if err := spans.write(filepath.Join(rc.dir, "spans.tsv")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func mcastEpisode(rc runConfig, w mcastShape, ep int, pool [][]byte, res *result, acc *layerAcc, allSpans *spanLog) error {
	traced := rc.traced(ep)
	var spans *spanLog
	if traced {
		spans = allSpans
	}
	victim := w.members - 1
	sh := shape{Rate: w.rate, Erlang: 1, Steady: rc.episodeLen() - mcastQuiet - mcastTail, Quiet: mcastQuiet, Tail: mcastTail,
		Kind: opMcast, Pays: len(pool), Targets: w.members, Victim: victim}
	ops := schedule(rc.seed, ep, sh)
	pl := &res.pools[b2i(traced)]

	f, err := startMcast(w, ep, ops, pool, traced, spans)
	if err != nil {
		return err
	}
	defer f.close()
	pl.setup = append(pl.setup, f.setup.Seconds())

	survivors := f.p[:victim]
	submitted := make([]time.Time, len(ops))
	failed := make([]bool, len(ops))
	var (
		lagMax          time.Duration
		crashT          time.Time
		steadyEnd       counters
		atCrash, survAt counters
		cost1           probe
		crashed         bool
		tailShift       time.Duration
		victimClosed    = make(chan struct{})
	)
	base := time.Now().Add(5 * time.Millisecond)
	before, cost0 := readCounters(f.p), readProbe()
	crash := func() {
		sleepUntil(base.Add(sh.Steady))
		steadyEnd, cost1 = readCounters(f.p), readProbe()
		sleepUntil(base.Add(sh.crashAt()))
		atCrash, survAt = readCounters(f.p), readCounters(survivors)
		crashT, crashed = time.Now(), true
		go func() {
			defer close(victimClosed)
			f.closeProc(victim)
		}()
		// A multicast submitted before the survivors exclude the victim
		// may travel the ring through it, and the stalled reassembly can
		// outlast Ω and shatter the group (README, "Finding"). So the tail
		// load starts once every survivor has excluded the victim.
		f.ev.awaitExclusion(f.ids[victim], f.ids[:victim], crashT, crashT.Add(drainWindow))
		tailShift = time.Since(base.Add(sh.crashAt()))
	}
	for i, o := range ops {
		if !crashed && o.At >= sh.crashAt() {
			crash()
		}
		due := base.Add(o.At + tailShift)
		sleepUntil(due)
		s := time.Now()
		if l := s.Sub(due); l > lagMax {
			lagMax = l
		}
		submitted[i] = s
		if err := f.p[o.Target].Submit(1, payloadOf(ep, i, pool, o)); err != nil {
			failed[i] = true
		}
		spans.add("Submit", opID(ep, i), int(f.ids[o.Target]), s, time.Now())
	}
	if !crashed {
		crash()
	}
	<-victimClosed

	// Wait until every submitted op reached every survivor.
	want := int64(len(ops))
	for _, b := range failed {
		if b {
			want--
		}
	}
	deadline := time.Now().Add(drainWindow)
	for _, ml := range f.logs[:victim] {
		for ml.count.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	tb := newTraceBook()
	if traced {
		for i, p := range f.p {
			tb.collect(f.ids[i], p)
		}
	}
	after := readCounters(survivors)
	f.close() // ends the drain goroutines: the member logs are final

	// Accounting, end-to-end samples and the correctness gate.
	res.attempted += len(ops)
	first, resumed := firstAfter(ops, sh), false
	for i, o := range ops {
		done := !failed[i]
		var last int64
		for _, ml := range f.logs[:victim] {
			if ml.at[i] == 0 {
				done = false
			}
			last = max(last, ml.at[i])
		}
		if !done {
			res.failed++
			continue
		}
		due := base.Add(o.At)
		if i == first {
			resumed = true
			pl.unavail = append(pl.unavail, ms(time.Unix(0, last).Sub(crashT)))
		}
		if o.At >= sh.crashAt() {
			continue
		}
		last = max(last, f.logs[victim].at[i])
		pl.write = append(pl.write, ms(time.Unix(0, last).Sub(due)))
		if at := f.logs[o.Target].at[i]; at != 0 { // the victim may die before its own delivery
			pl.read = append(pl.read, ms(time.Unix(0, at).Sub(due)))
		}
	}
	if !resumed {
		res.problem("ep%d: the first multicast after the crash did not complete", ep)
	}
	checkMcast(res, f, ep, victim)
	if d := unexplainedDrops(atCrash.delta(counters{}), false); d != "" {
		res.problem("ep%d: unexplained drops before the crash: %s", ep, d)
	}
	if d := unexplainedDrops(after.delta(survAt), true); d != "" {
		res.problem("ep%d: unexplained drops after the crash: %s", ep, d)
	}
	detect, exclude, views, ok := f.ev.crashStats(f.ids[victim], f.ids[:victim], crashT)
	if !ok {
		res.problem("ep%d: survivors never excluded the crashed member", ep)
	}
	if !traced {
		return nil
	}

	acc.ops += countSteady(ops, sh)
	acc.ctr = acc.ctr.add(steadyEnd.delta(before))
	acc.cost = acc.cost.add(cost1.sub(cost0))
	acc.detect = append(acc.detect, ms(detect))
	acc.exclude = append(acc.exclude, ms(exclude))
	acc.views = append(acc.views, views)
	acc.lagMax = max(acc.lagMax, lagMax)
	mcastTraceLegs(acc, tb, f, ops, sh, base, submitted)
	return nil
}

// checkMcast is the multicast correctness gate: every survivor delivered
// every payload intact and exactly once, all in one order, and the
// crashed member delivered a prefix of that order.
func checkMcast(res *result, f *mcastFleet, ep, victim int) {
	for _, ml := range f.logs {
		if ml.bad != "" {
			res.problem("ep%d: %s", ep, ml.bad)
			return
		}
	}
	ref := f.logs[0].order
	for j, ml := range f.logs {
		o := ml.order
		if j != victim && len(o) != len(ref) {
			res.problem("ep%d: P%d delivered %d multicasts, P1 %d", ep, f.ids[j], len(o), len(ref))
			return
		}
		if len(o) > len(ref) {
			res.problem("ep%d: crashed P%d delivered more than the survivors", ep, f.ids[j])
			return
		}
		for k := range o {
			if o[k] != ref[k] {
				res.problem("ep%d: P%d and P1 disagree on delivery %d", ep, f.ids[j], k)
				return
			}
		}
	}
}

// mcastTraceLegs turns the steady phase's stage traces into per-layer
// samples and the delivery budget, each sampled op following its chain to
// the member that delivered it last.
func mcastTraceLegs(acc *layerAcc, tb *traceBook, f *mcastFleet, ops []op, sh shape, base time.Time, submitted []time.Time) {
	steadyEnd := base.Add(sh.Steady)
	originSend := func(k obs.TraceKey) (time.Time, bool) {
		s := tb.byProc[k.Origin][k].Stamps[obs.StageSend]
		return s, !s.IsZero() && s.After(base) && s.Before(steadyEnd)
	}
	steady := func(k obs.TraceKey) bool { _, ok := originSend(k); return ok }
	acc.traces += tb.count()
	acc.orderWait = append(acc.orderWait, tb.stageGaps(obs.StageOrdered, obs.StageStable, steady)...)
	acc.network = append(acc.network, tb.networkGaps(steady)...)

	type lastRecv struct {
		member newtop.ProcessID
		s      recvSample
	}
	last := map[obs.TraceKey]lastRecv{}
	for j, ml := range f.logs {
		id := f.ids[j]
		for _, s := range ml.samples {
			k := s.key
			if !steady(k) {
				continue
			}
			if st := tb.byProc[id][k].Stamps[obs.StageStable]; !st.IsZero() {
				acc.stableOut = append(acc.stableOut, ms(s.at.Sub(st)))
			}
			if l, ok := last[k]; !ok || s.at.After(l.s.at) {
				last[k] = lastRecv{id, s}
			}
		}
	}
	for k, l := range last {
		send, _ := originSend(k)
		o := ops[l.s.op]
		due := base.Add(o.At)
		acc.submitSend = append(acc.submitSend, ms(send.Sub(submitted[l.s.op])))
		t := tb.byProc[l.member][k]
		recv, ord, stab, del := t.Stamps[obs.StageReceive], t.Stamps[obs.StageOrdered], t.Stamps[obs.StageStable], t.Stamps[obs.StageDelivered]
		if recv.IsZero() || ord.IsZero() || stab.IsZero() || del.IsZero() {
			continue
		}
		sub := submitted[l.s.op]
		total := ms(l.s.at.Sub(due))
		acc.chain([]float64{ms(sub.Sub(due)), 0, ms(send.Sub(sub)), ms(recv.Sub(send)), ms(ord.Sub(recv)),
			ms(stab.Sub(ord)), ms(del.Sub(stab)), ms(l.s.at.Sub(del))}, total)
		acc.total = append(acc.total, total)
	}
}
