package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"newtop"
	"newtop/client"
	"newtop/internal/daemon"
	"newtop/internal/obs"
)

// kv-trickle: three durable daemons, two sessions pinned to P1 and P2,
// P3 quiet until it crashes silently at the end of the steady phase.
const (
	kvRate = 44.0 // ops/s over both sessions, half Put, half BarrierGet
	// kvErlang smooths the arrivals (gap CV 0.5): two serial sessions at
	// Poisson arrivals queue in bursts, and the bursts, not the program,
	// then set the tail.
	kvErlang    = 4
	kvKeys      = 1024
	kvValueSize = 128
	kvTail      = time.Second // load after the crash
	kvVictim    = 2           // index of P3
)

// kvRec is what one scheduled kv operation did.
type kvRec struct {
	start, end time.Time
	val        string // written, or read
	found      bool
	err        error
	done       bool
}

func kvKey(k int) string { return fmt.Sprintf("k%04d", k) }

// kvValue is the 128 B value of operation i of an episode: its identity
// followed by seeded filler.
func kvValue(ep, i int, filler []byte) string {
	head := fmt.Sprintf("e%do%d-", ep, i)
	return head + string(filler[:kvValueSize-len(head)])
}

// kvValueOp recovers the operation index a value was written by.
func kvValueOp(v string) (int, bool) {
	_, rest, ok := strings.Cut(v, "o")
	if !ok {
		return 0, false
	}
	num, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(num)
	return i, err == nil
}

func opID(ep, i int) int64 { return int64(ep)<<32 | int64(i) }

// Listen ports come from below Linux's default ephemeral range
// (32768–60999). A port the kernel hands out for ":0" is free again once
// the reserving listener closes, and an outgoing dial of an earlier
// daemon could take it before the daemon meant to listen there binds it.
// The cursor starts at a time-derived offset so that runs one after the
// other do not reuse each other's ports.
const portLo, portHi = 20000, 32768

var nextPort = portLo + int(time.Now().UnixNano()%(portHi-portLo))

// reservePorts picks n free loopback ports. The inter-daemon address book
// is static, so every address must be known before the first process
// starts.
func reservePorts(n int) ([]string, error) {
	var addrs []string
	for tries := 0; len(addrs) < n; tries++ {
		if tries == portHi-portLo {
			return nil, fmt.Errorf("reserve ports: no free port in [%d, %d)", portLo, portHi)
		}
		if nextPort++; nextPort == portHi {
			nextPort = portLo
		}
		addr := fmt.Sprintf("127.0.0.1:%d", nextPort)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue // in use
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// sleepUntil sleeps with nanosleep, which overshoots by tens of
// microseconds where the runtime's timers overshoot by most of a
// millisecond here — most of the multicast latency being measured.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
	}
}

// evLog records the membership events a fleet reports, with their time.
type evLog struct {
	mu    sync.Mutex
	evs   []evRec
	spans *spanLog
}

type evRec struct {
	proc newtop.ProcessID
	ev   newtop.Event
	at   time.Time
}

func (l *evLog) add(p newtop.ProcessID, ev newtop.Event) {
	now := time.Now()
	l.mu.Lock()
	l.evs = append(l.evs, evRec{p, ev, now})
	l.mu.Unlock()
	l.spans.add(fmt.Sprintf("event.%d", ev.Kind), -1, int(p), now, now)
}

// crashStats reads the survivors' reaction to the victim's crash: the
// first suspicion of it, the last survivor's view without it, and how
// many views each survivor installed after the crash. ok is false if some
// survivor never excluded the victim.
func (l *evLog) crashStats(victim newtop.ProcessID, survivors []newtop.ProcessID, crash time.Time) (detect, exclude time.Duration, views float64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	excluded := map[newtop.ProcessID]time.Time{}
	n := 0
	detect = -1
	for _, r := range l.evs {
		if r.at.Before(crash) || !containsID(survivors, r.proc) {
			continue
		}
		switch r.ev.Kind {
		case newtop.EventSuspected:
			if r.ev.Suspect == victim && (detect < 0 || r.at.Sub(crash) < detect) {
				detect = r.at.Sub(crash)
			}
		case newtop.EventViewChanged:
			n++
			if _, seen := excluded[r.proc]; !seen && !r.ev.View.Contains(victim) {
				excluded[r.proc] = r.at
			}
		}
	}
	for _, at := range excluded {
		if d := at.Sub(crash); d > exclude {
			exclude = d
		}
	}
	return detect, exclude, float64(n) / float64(len(survivors)), len(excluded) == len(survivors) && detect >= 0
}

// awaitExclusion waits until every survivor has suspected the victim and
// installed a view without it, or until the deadline.
func (l *evLog) awaitExclusion(victim newtop.ProcessID, survivors []newtop.ProcessID, crash, deadline time.Time) {
	for time.Now().Before(deadline) {
		if _, _, _, ok := l.crashStats(victim, survivors, crash); ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func containsID(ids []newtop.ProcessID, p newtop.ProcessID) bool {
	for _, id := range ids {
		if id == p {
			return true
		}
	}
	return false
}

// kvFleet is one episode's daemons and sessions.
type kvFleet struct {
	ids    []newtop.ProcessID
	d      []*daemon.Daemon
	closed []bool
	caddr  []string
	sess   []*client.Client
	creg   []*obs.Registry
	ev     *evLog
	dir    string
	setup  time.Duration
	spans  *spanLog
}

func (f *kvFleet) procs(idx ...int) map[newtop.ProcessID]*newtop.Process {
	m := map[newtop.ProcessID]*newtop.Process{}
	for _, i := range idx {
		m[f.ids[i]] = f.d[i].Proc()
	}
	return m
}

func procList(m map[newtop.ProcessID]*newtop.Process) []*newtop.Process {
	out := make([]*newtop.Process, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	return out
}

// closeDaemon stops daemon i; a daemon.Close sends no leave, so to the
// others it is a silent crash.
func (f *kvFleet) closeDaemon(i int) {
	s := time.Now()
	_ = f.d[i].Close() // the Close error of a stopped daemon changes nothing here
	f.spans.add("daemon.Close", -1, int(f.ids[i]), s, time.Now())
	f.closed[i] = true
}

func (f *kvFleet) close() {
	for _, c := range f.sess {
		c.Close()
	}
	for i, d := range f.d {
		if d != nil && !f.closed[i] {
			f.closeDaemon(i)
		}
	}
	os.RemoveAll(f.dir)
}

// startKV boots three durable daemons and both sessions, timing set-up
// from the first daemon start to both sessions' first acked Put.
func startKV(rc runConfig, ep int, traced bool, spans *spanLog) (*kvFleet, error) {
	addrs, err := reservePorts(3)
	if err != nil {
		return nil, err
	}
	f := &kvFleet{
		ids:    []newtop.ProcessID{1, 2, 3},
		d:      make([]*daemon.Daemon, 3),
		closed: make([]bool, 3),
		caddr:  make([]string, 3),
		ev:     &evLog{spans: spans},
		dir:    filepath.Join(rc.dir, fmt.Sprintf("wal-ep%d", ep)),
		spans:  spans,
	}
	var sample uint64
	if traced {
		sample = 1 // every data message; the daemons' tracers keep 1024, polled
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, id := range f.ids {
		peers := map[newtop.ProcessID]string{}
		for j, pid := range f.ids {
			if j != i {
				peers[pid] = addrs[j]
			}
		}
		cfg := daemon.Config{
			Self:             id,
			ListenAddr:       addrs[i],
			Peers:            peers,
			ClientAddr:       "127.0.0.1:0",
			Omega:            omega,
			RingThreshold:    ringThreshold,
			RingPullAfter:    ringPullAfter,
			TraceSampleEvery: sample,
			DataDir:          filepath.Join(f.dir, fmt.Sprintf("p%d", id)),
			Fsync:            "always",
			Logf:             func(string, ...any) {},
			OnEvent:          func(ev newtop.Event) { f.ev.add(id, ev) },
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := time.Now()
			f.d[i], errs[i] = daemon.Start(cfg)
			spans.add("daemon.Start", -1, int(id), s, time.Now())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start daemon: %w", err)
		}
	}
	book := map[newtop.ProcessID]string{}
	for i, d := range f.d {
		f.caddr[i] = d.ClientAddr()
		book[f.ids[i]] = f.caddr[i]
	}
	for _, d := range f.d {
		d.SetPeerClientAddrs(book)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, d := range f.d {
		for rep, _ := d.Replica(); rep == nil || !rep.CaughtUp(); rep, _ = d.Replica() {
			if time.Now().After(deadline) {
				f.close()
				return nil, fmt.Errorf("daemons never caught up")
			}
			time.Sleep(time.Millisecond)
		}
	}
	errs = make([]error, 2)
	for s := 0; s < 2; s++ {
		reg := obs.NewRegistry()
		c, err := client.Config{Metrics: reg}.Dial(f.caddr[s], f.caddr[1-s])
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial session %d: %w", s, err)
		}
		f.sess, f.creg = append(f.sess, c), append(f.creg, reg)
	}
	for s, c := range f.sess {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = c.Put(fmt.Sprintf("setup%d", s), "ready")
		}()
	}
	wg.Wait()
	f.setup = time.Since(t0)
	for _, err := range errs {
		if err != nil {
			f.close()
			return nil, fmt.Errorf("first put: %w", err)
		}
	}
	return f, nil
}

func runKV(rc runConfig) (*result, error) {
	res := &result{}
	acc := &layerAcc{}
	pay := payloadPool(rc.seed, 256, kvValueSize)
	var spans *spanLog
	if rc.trace {
		spans = &spanLog{}
	}
	for i := range extraSetups {
		f, err := startKV(rc, episodes+i, false, nil)
		if err != nil {
			return nil, err
		}
		if !rc.trace {
			res.pools[0].setup = append(res.pools[0].setup, f.setup.Seconds())
		}
		f.close()
	}
	for ep := 0; ep < episodes; ep++ {
		if err := kvEpisode(rc, ep, pay, res, acc, spans); err != nil {
			return nil, err
		}
	}
	if rc.trace {
		res.layers = acc.metrics("kv-trickle writes", res.pools)
		if err := spans.write(filepath.Join(rc.dir, "spans.tsv")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func kvEpisode(rc runConfig, ep int, pay [][]byte, res *result, acc *layerAcc, allSpans *spanLog) error {
	traced := rc.traced(ep)
	var spans *spanLog
	if traced {
		spans = allSpans
	}
	sh := shape{Rate: kvRate, Erlang: kvErlang, Steady: rc.episodeLen() - kvTail, Tail: kvTail, Kind: opPut,
		Keys: kvKeys, Pays: len(pay), Targets: 2, Victim: -1}
	ops := schedule(rc.seed, ep, sh)
	pl := &res.pools[b2i(traced)]

	f, err := startKV(rc, ep, traced, spans)
	if err != nil {
		return err
	}
	defer f.close()
	pl.setup = append(pl.setup, f.setup.Seconds())

	all, survivors := f.procs(0, 1, 2), f.procs(0, 1)
	tb := newTraceBook()
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	if traced {
		go func() { tb.poll(all, 200*time.Millisecond, stopPoll); close(pollDone) }()
	} else {
		close(pollDone)
	}

	recs := make([]kvRec, len(ops))
	// Sized to the whole schedule, so the generator never blocks on a
	// busy session: a stall delays completions, never arrivals.
	queues := []chan int{make(chan int, len(ops)), make(chan int, len(ops))}
	base := time.Now().Add(5 * time.Millisecond)
	before, cost0 := readCounters(procList(all)), readProbe()
	var wg sync.WaitGroup
	for s := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.sess[s]
			for i := range queues[s] {
				o, r := ops[i], &recs[i]
				due := base.Add(o.At)
				r.start = time.Now()
				if o.Kind == opPut {
					r.val = kvValue(ep, i, pay[o.Pay])
					r.err = c.PutAt(due, kvKey(o.Key), r.val)
				} else {
					r.val, r.found, r.err = c.BarrierGetAt(due, kvKey(o.Key))
				}
				r.end, r.done = time.Now(), true
				spans.add([]string{"client.Put", "client.BarrierGet"}[o.Kind], opID(ep, i), s, r.start, r.end)
			}
		}()
	}

	// The generator: one goroutine dispatching on schedule.
	var (
		lagMax           time.Duration
		crashT           time.Time
		atCrash, survAt  counters
		cost1            probe
		crashed          bool
		victimClosedDone = make(chan struct{})
	)
	crash := func() {
		sleepUntil(base.Add(sh.Steady))
		atCrash, survAt, cost1 = readCounters(procList(all)), readCounters(procList(survivors)), readProbe()
		crashT, crashed = time.Now(), true
		go func() {
			defer close(victimClosedDone)
			f.closeDaemon(kvVictim)
		}()
	}
	for i, o := range ops {
		if !crashed && o.At >= sh.crashAt() {
			crash()
		}
		due := base.Add(o.At)
		sleepUntil(due)
		if l := time.Since(due); l > lagMax {
			lagMax = l
		}
		queues[o.Target] <- i
	}
	if !crashed {
		crash()
	}
	for _, q := range queues {
		close(q)
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainWindow):
		for _, c := range f.sess {
			c.Close() // unblocks the workers; their ops count as failed
		}
		<-drained
	}
	<-victimClosedDone

	// Accounting and end-to-end samples.
	res.attempted += len(ops)
	for i, o := range ops {
		r := &recs[i]
		if !r.done || r.err != nil {
			res.failed++
			if r.err != nil && res.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: kv op %d failed: %v\n", i, r.err)
			}
			continue
		}
		if o.At >= sh.Steady {
			continue
		}
		lat := ms(r.end.Sub(base.Add(o.At)))
		if o.Kind == opPut {
			pl.write = append(pl.write, lat)
		} else {
			pl.read = append(pl.read, lat)
		}
	}
	if i := firstAfter(ops, sh); i < len(ops) && recs[i].done && recs[i].err == nil {
		pl.unavail = append(pl.unavail, ms(recs[i].end.Sub(crashT)))
	} else {
		res.problem("ep%d: the first operation after the crash did not complete", ep)
	}

	checkKV(res, f, ep, ops, recs)
	if d := unexplainedDrops(atCrash.delta(counters{}), false); d != "" {
		res.problem("ep%d: unexplained drops before the crash: %s", ep, d)
	}
	if d := unexplainedDrops(readCounters(procList(survivors)).delta(survAt), true); d != "" {
		res.problem("ep%d: unexplained drops after the crash: %s", ep, d)
	}
	detect, exclude, views, ok := f.ev.crashStats(f.ids[kvVictim], f.ids[:2], crashT)
	if !ok {
		res.problem("ep%d: survivors never excluded the crashed daemon", ep)
	}

	close(stopPoll)
	<-pollDone
	if !traced {
		return nil
	}
	acc.ops += countSteady(ops, sh)
	acc.ctr = acc.ctr.add(atCrash.delta(before))
	acc.cost = acc.cost.add(cost1.sub(cost0))
	for _, reg := range f.creg {
		snap := reg.Snapshot()
		acc.retries += snap.Counters["newtop_client_retries_total"]
		acc.failovers += snap.Counters["newtop_client_failovers_total"]
	}
	acc.detect = append(acc.detect, ms(detect))
	acc.exclude = append(acc.exclude, ms(exclude))
	acc.views = append(acc.views, views)
	if lagMax > acc.lagMax {
		acc.lagMax = lagMax
	}
	kvTraceLegs(acc, tb, base, crashT)
	for i, o := range ops {
		r := &recs[i]
		if o.Kind != opPut || o.At >= sh.Steady || r.err != nil {
			continue
		}
		due := base.Add(o.At)
		acc.queue = append(acc.queue, ms(r.start.Sub(due)))
		acc.clientSpan = append(acc.clientSpan, ms(r.end.Sub(r.start)))
		acc.total = append(acc.total, ms(r.end.Sub(due)))
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func countSteady(ops []op, sh shape) int {
	n := 0
	for _, o := range ops {
		if o.At < sh.Steady {
			n++
		}
	}
	return n
}

// kvTraceLegs turns the daemons' stage traces of the steady phase into
// per-layer samples: the write chain at the serving daemon (the origin of
// its own proposals), ordering waits everywhere, and network hops.
func kvTraceLegs(acc *layerAcc, tb *traceBook, from, to time.Time) {
	steady := func(k obs.TraceKey) bool {
		s := tb.byProc[k.Origin][k].Stamps[obs.StageSubmit]
		return !s.IsZero() && s.After(from) && s.Before(to)
	}
	acc.traces += tb.count()
	acc.orderWait = append(acc.orderWait, tb.stageGaps(obs.StageOrdered, obs.StageStable, steady)...)
	acc.network = append(acc.network, tb.networkGaps(steady)...)
	chain := []obs.Stage{obs.StageSubmit, obs.StageSend, obs.StageReceive, obs.StageOrdered,
		obs.StageStable, obs.StageDelivered, obs.StageApplied}
	for id, m := range tb.byProc {
		for k, t := range m {
			// Writes only: a barrier is ordered but never applied.
			if k.Origin != id || !steady(k) || t.Stamps[obs.StageApplied].IsZero() {
				continue
			}
			// The chain starts at the engine's submit stamp; the queue and
			// serve legs before it are filled in from the client side.
			legs := make([]float64, len(legNames))
			for j := range chain[1:] {
				d, _ := gap(t, chain[j], chain[j+1])
				legs[j+2] = ms(d)
			}
			d, _ := gap(t, obs.StageSubmit, obs.StageApplied)
			acc.chain(legs, ms(d))
			acc.originSpan = append(acc.originSpan, ms(d))
			d, _ = gap(t, obs.StageDelivered, obs.StageApplied)
			acc.deliverApply = append(acc.deliverApply, ms(d))
		}
	}
}

// checkKV is the kv correctness gate: every read saw a value consistent
// with the acked writes around it, every acked write reads back at both
// survivors, and the survivors' replicas agree.
func checkKV(res *result, f *kvFleet, ep int, ops []op, recs []kvRec) {
	puts := map[int][]int{} // key → put op indices
	keys := map[int]bool{}
	for i, o := range ops {
		keys[o.Key] = true
		if o.Kind == opPut {
			puts[o.Key] = append(puts[o.Key], i)
		}
	}
	// check returns why a read of key k that ran over [rs, re] and saw
	// (val, found) contradicts the write history, or "".
	check := func(k int, val string, found bool, rs, re time.Time) string {
		if !found {
			for _, p := range puts[k] {
				if recs[p].err == nil && recs[p].done && recs[p].end.Before(rs) {
					return fmt.Sprintf("key %d missing; op %d acked it before the read", k, p)
				}
			}
			return ""
		}
		q, ok := kvValueOp(val)
		if !ok || q >= len(ops) || ops[q].Kind != opPut || ops[q].Key != k || recs[q].val != val {
			return fmt.Sprintf("key %d holds a value never written to it", k)
		}
		if !recs[q].start.Before(re) {
			return fmt.Sprintf("key %d holds op %d's value before it was written", k, q)
		}
		if recs[q].err != nil {
			return ""
		}
		for _, p := range puts[k] {
			if rp := recs[p]; p != q && rp.err == nil && rp.done && recs[q].end.Before(rp.start) && rp.end.Before(rs) {
				return fmt.Sprintf("key %d stale: op %d's value read after op %d acked", k, q, p)
			}
		}
		return ""
	}
	for i, o := range ops {
		r := recs[i]
		if o.Kind == opRead && r.done && r.err == nil {
			if why := check(o.Key, r.val, r.found, r.start, r.end); why != "" {
				res.problem("ep%d: read op %d: %s", ep, i, why)
				return
			}
		}
	}
	// Read everything back at each survivor: one barrier, then local reads
	// at the daemon the session is pinned to.
	for s, c := range f.sess {
		if c.Pinned() != f.caddr[s] {
			res.problem("ep%d: session %d moved off P%d", ep, s, f.ids[s])
			return
		}
		if v, found, err := c.BarrierGet("setup0"); err != nil || !found || v != "ready" {
			res.problem("ep%d: P%d lost the set-up write (%v)", ep, f.ids[s], err)
			return
		}
		rs := time.Now()
		for k := range keys {
			v, found, err := c.Get(kvKey(k))
			if err != nil {
				res.problem("ep%d: read-back at P%d: %v", ep, f.ids[s], err)
				return
			}
			if why := check(k, v, found, rs, time.Now()); why != "" {
				res.problem("ep%d: read-back at P%d: %s", ep, f.ids[s], why)
				return
			}
		}
	}
	r1, _ := f.d[0].Replica()
	r2, _ := f.d[1].Replica()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a1, a2 := r1.AppliedSeq(), r2.AppliedSeq()
		if a1 == a2 {
			d1, d2 := r1.Digest(), r2.Digest()
			if r1.AppliedSeq() == a1 && r2.AppliedSeq() == a2 {
				if d1 != d2 {
					res.problem("ep%d: survivors diverge at applied seq %d", ep, a1)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			res.problem("ep%d: survivors never reached the same applied seq (%d vs %d)", ep, a1, a2)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
