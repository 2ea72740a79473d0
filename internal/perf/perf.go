// Package perf hosts the engine micro-benchmark bodies and a programmatic
// runner for them. The same functions back two entry points:
//
//   - internal/core/bench_test.go wraps them as standard testing
//     benchmarks (`go test -bench Engine ./internal/core`);
//   - cmd/newtop-bench runs them via testing.Benchmark and emits
//     machine-readable results (BENCH_core.json), so the perf trajectory
//     of the hot path is tracked commit over commit.
//
// Payloads are pre-generated outside the timed loops: the benchmarks
// measure the engine, not fmt.
package perf

import (
	"fmt"
	"os"
	"testing"
	"time"

	"newtop"
	"newtop/client"
	"newtop/internal/core"
	"newtop/internal/daemon"
	"newtop/internal/obs"
	"newtop/internal/rsm"
	"newtop/internal/sim"
	"newtop/internal/storage"
	"newtop/internal/transport/tcpnet"
	"newtop/internal/types"
)

// payloads is a fixed pool of distinct pre-generated payloads, reused
// round-robin so payload construction never lands in a timed loop.
var payloads = func() [][]byte {
	out := make([][]byte, 256)
	for i := range out {
		p := []byte{'b', '-', byte('a' + i%26), byte('a' + (i/26)%26), 0}
		p[4] = byte(i)
		out[i] = p
	}
	return out
}()

// NewCluster builds the standard benchmark cluster: n processes, one
// bootstrapped group, tight latency band.
func NewCluster(b *testing.B, n int, mode core.OrderMode) (*sim.Cluster, []types.ProcessID) {
	b.Helper()
	c := sim.New(1, sim.WithLatency(100*time.Microsecond, 300*time.Microsecond))
	ps := make([]types.ProcessID, 0, n)
	for i := 1; i <= n; i++ {
		c.AddProcess(core.Config{Self: types.ProcessID(i), Omega: 5 * time.Millisecond})
		ps = append(ps, types.ProcessID(i))
	}
	if err := c.Bootstrap(1, mode, ps); err != nil {
		b.Fatal(err)
	}
	return c, ps
}

// EngineThroughput is the end-to-end protocol throughput body: b.N
// multicasts round-robin across all members of one n-member group, full
// ordering and stability machinery engaged, deliveries drained.
func EngineThroughput(b *testing.B, n int, mode core.OrderMode) {
	c, ps := NewCluster(b, n, mode)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := ps[i%len(ps)]
		if err := c.Submit(src, 1, payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			c.Run(10 * time.Millisecond) // let deliveries drain
		}
	}
	c.Run(200 * time.Millisecond)
	b.StopTimer()
	want := b.N
	got := len(c.History(ps[0]).Deliveries)
	if got < want {
		b.Fatalf("delivered %d of %d", got, want)
	}
}

// EngineHandleMessage isolates the receive path: one engine processing a
// pre-built stream of data messages from a peer. Messages are generated
// in chunks with the timer stopped — each must be a distinct struct (the
// engine retains accepted messages in its log and delivery queue), but
// constructing them is harness work, not engine work.
func EngineHandleMessage(b *testing.B) {
	e := core.NewEngine(core.Config{Self: 1, Omega: time.Hour})
	now := sim.Epoch
	if _, err := e.BootstrapGroup(now, 1, core.Symmetric, []types.ProcessID{1, 2}); err != nil {
		b.Fatal(err)
	}
	payload := payloads[0]
	const chunk = 8192
	msgs := make([]*types.Message, 0, chunk)
	fill := func(from int) {
		msgs = msgs[:0]
		for i := from; i < from+chunk && i < b.N; i++ {
			msgs = append(msgs, &types.Message{
				Kind: types.KindData, Group: 1, Sender: 2, Origin: 2,
				Num: types.MsgNum(i + 1), Seq: uint64(i + 1), LDN: types.MsgNum(i),
				Payload: payload,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 {
			b.StopTimer()
			fill(i)
			b.StartTimer()
		}
		e.HandleMessage(now, 2, msgs[i%chunk])
	}
}

// MetricsHotPath measures one instrumented-hot-path's worth of metric
// updates — a counter increment, a gauge set and a histogram observation
// against pre-resolved handles, which is exactly how every layer uses the
// registry. The CI gate pins it at 0 allocs/op: instrumentation must
// never put allocation pressure on the paths it watches.
func MetricsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("newtop_bench_events_total")
	g := reg.Gauge("newtop_bench_depth")
	h := reg.Histogram("newtop_bench_latency_ns")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(int64(i & 1023))
		h.Observe(int64(i))
	}
}

// RingDisseminateN9 measures the ring payload path end to end: 16 KiB
// multicasts from one originator into a 9-member group with the ring
// threshold engaged, so each payload leaves the originator once and
// relays successor to successor while the ordering metadata fans out
// point-to-point. The engines run with the message arena on — this is
// the configuration newtop.Start ships.
func RingDisseminateN9(b *testing.B) {
	const payloadLen = 16 << 10
	c := sim.New(1,
		sim.WithLatency(100*time.Microsecond, 300*time.Microsecond),
		sim.WithRing(1024))
	ps := make([]types.ProcessID, 0, 9)
	for i := 1; i <= 9; i++ {
		c.AddProcess(core.Config{Self: types.ProcessID(i), Omega: 5 * time.Millisecond, MessageArena: true})
		ps = append(ps, types.ProcessID(i))
	}
	if err := c.Bootstrap(1, core.Symmetric, ps); err != nil {
		b.Fatal(err)
	}
	c.Run(20 * time.Millisecond)
	large := make([][]byte, 8)
	for i := range large {
		large[i] = make([]byte, payloadLen)
		for j := range large[i] {
			large[i][j] = byte(i + j*7)
		}
	}
	b.SetBytes(payloadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Submit(1, 1, large[i%len(large)]); err != nil {
			b.Fatal(err)
		}
		if i%16 == 15 {
			c.Run(5 * time.Millisecond)
		}
	}
	c.Run(500 * time.Millisecond)
	b.StopTimer()
	if got := len(c.History(9).Deliveries); got < b.N {
		b.Fatalf("P9 delivered %d of %d ring payloads", got, b.N)
	}
}

// EngineArenaCycle drives one arena-enabled engine through the complete
// own-message lifecycle per iteration — multicast, peer nulls advancing
// delivery and stability, log GC releasing the slot — so every own
// message struct is recycled through the group arena. allocs/op here is
// the steady-state heap cost of the whole cycle; the arena's job is
// keeping the per-message struct allocation out of it.
func EngineArenaCycle(b *testing.B) {
	e := core.NewEngine(core.Config{Self: 1, Omega: time.Hour, MessageArena: true})
	now := sim.Epoch
	if _, err := e.BootstrapGroup(now, 1, core.Symmetric, []types.ProcessID{1, 2, 3}); err != nil {
		b.Fatal(err)
	}
	payload := payloads[0]
	// Peer nulls are engine-retained until stable, which lags a couple of
	// iterations behind; rotating through a pool far wider than that lag
	// reuses the structs without allocating in the timed loop.
	const slots = 256
	pool := make([]types.Message, 2*slots)
	ownNum := func(effs []core.Effect) types.MsgNum {
		for _, eff := range effs {
			if s, ok := eff.(core.SendEffect); ok {
				return s.Msg.Num
			}
		}
		b.Fatal("submit produced no send")
		return 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	var seq uint64
	for i := 0; i < b.N; i++ {
		effs, err := e.Submit(now, 1, payload)
		if err != nil {
			b.Fatal(err)
		}
		num := ownNum(effs)
		seq++
		n2 := &pool[(i%slots)*2]
		n3 := &pool[(i%slots)*2+1]
		*n2 = types.Message{Kind: types.KindNull, Group: 1, Sender: 2, Origin: 2, Num: num + 1, Seq: seq, LDN: num}
		*n3 = types.Message{Kind: types.KindNull, Group: 1, Sender: 3, Origin: 3, Num: num + 1, Seq: seq, LDN: num}
		e.HandleMessage(now, 2, n2)
		e.HandleMessage(now, 3, n3)
	}
}

// EnginePromptNull drives the prompt-null send path with the message
// arena on, as internal/node runs the engine: per iteration a peer's data
// message arrives, Flush answers it with one null, and a third member's
// null lets the data deliver and stability advance, so log GC recycles
// the own null's arena slot. allocs/op is the steady-state heap cost of
// answering one inbound burst.
func EnginePromptNull(b *testing.B) {
	e := core.NewEngine(core.Config{Self: 1, Omega: time.Hour, MessageArena: true})
	now := sim.Epoch
	if _, err := e.BootstrapGroup(now, 1, core.Symmetric, []types.ProcessID{1, 2, 3}); err != nil {
		b.Fatal(err)
	}
	payload := payloads[0]
	// Peer messages are engine-retained until stable, a couple of
	// iterations; the pool is far wider than that lag.
	const slots = 256
	pool := make([]types.Message, 2*slots)
	nullNum := func(effs []core.Effect) types.MsgNum {
		for _, eff := range effs {
			if s, ok := eff.(core.SendEffect); ok && s.Msg.Kind == types.KindNull {
				return s.Msg.Num
			}
		}
		b.Fatal("Flush sent no null")
		return 0
	}
	// P1 answers only once it has heard from every member: P3's first
	// time-silence null comes before the timed loop.
	e.HandleMessage(now, 3, &types.Message{Kind: types.KindNull, Group: 1, Sender: 3, Origin: 3, Num: 1, Seq: 1})
	var seq uint64
	num := types.MsgNum(1) // highest number so far: P1's last null
	var ldn types.MsgNum   // P2's delivery gate, carried on its data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		d := &pool[(i%slots)*2]
		n3 := &pool[(i%slots)*2+1]
		*d = types.Message{Kind: types.KindData, Group: 1, Sender: 2, Origin: 2, Num: num + 2, Seq: seq, LDN: ldn, Payload: payload}
		e.HandleMessage(now, 2, d)
		ldn, num = num, nullNum(e.Flush(now))
		*n3 = types.Message{Kind: types.KindNull, Group: 1, Sender: 3, Origin: 3, Num: num + 1, Seq: seq + 1, LDN: num}
		e.HandleMessage(now, 3, n3)
	}
	b.StopTimer()
	if got := e.Stats().Delivered; got != uint64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
	if l := e.LogSize(1); l > 16 {
		b.Fatalf("log holds %d messages after %d iterations: stability stalled", l, b.N)
	}
}

// MembershipAgreement measures a full crash-to-view-change cycle.
func MembershipAgreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, ps := NewCluster(b, 5, core.Symmetric)
		c.Run(20 * time.Millisecond)
		c.Crash(5)
		ok := c.RunUntil(10*time.Second, func() bool {
			for _, p := range ps[:4] {
				vs := c.History(p).Views[1]
				if len(vs) == 0 || vs[len(vs)-1].View.Contains(5) {
					return false
				}
			}
			return true
		})
		if !ok {
			b.Fatal("agreement never completed")
		}
	}
}

// RSMCatchUp measures the replication layer's state-transfer cycle end to
// end: a newcomer joins three loaded replicas by dynamic group formation,
// a streamer is elected through the total order, and a chunked snapshot
// (256 keys, 4 KiB chunks) plus replay tail brings it current. Scenario
// construction — building the cluster and seeding the incumbents' 256-key
// state — happens with the timer stopped: the benchmark measures the
// transfer cycle, not the harness.
func RSMCatchUp(b *testing.B) {
	const keys = 256
	cmds := make([][]byte, keys)
	for k := 0; k < keys; k++ {
		cmds[k] = []byte(fmt.Sprintf("put user:%04d value-%d", k, k))
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := sim.New(int64(i+1), sim.WithLatency(100*time.Microsecond, 300*time.Microsecond))
		ps := make([]types.ProcessID, 0, 4)
		for j := 1; j <= 4; j++ {
			c.AddProcess(core.Config{Self: types.ProcessID(j), Omega: 5 * time.Millisecond})
			ps = append(ps, types.ProcessID(j))
		}
		cores := make(map[types.ProcessID]*rsm.Core, 4)
		for j := 1; j <= 3; j++ {
			kv := rsm.NewKV()
			for _, cmd := range cmds {
				kv.Apply(cmd)
			}
			p := types.ProcessID(j)
			cores[p] = rsm.NewCore(rsm.CoreConfig{Self: p, Group: 1, ChunkSize: 4096}, kv)
		}
		newcomer := rsm.NewCore(rsm.CoreConfig{Self: 4, Group: 1, CatchUp: true, ChunkSize: 4096}, rsm.NewKV())
		cores[4] = newcomer
		c.OnDeliver(func(p types.ProcessID, d sim.Delivery) {
			cr, ok := cores[p]
			if !ok || d.Group != 1 {
				return
			}
			for _, pl := range cr.Step(types.LogPos{Group: d.Group, Index: d.Index}, d.Origin, d.Payload).Submits {
				_ = c.Submit(p, 1, pl)
			}
		})
		b.StartTimer()
		if err := c.CreateGroup(4, 1, core.Symmetric, ps); err != nil {
			b.Fatal(err)
		}
		for _, pl := range newcomer.Start() {
			if err := c.Submit(4, 1, pl); err != nil {
				b.Fatal(err)
			}
		}
		if !c.RunUntil(10*time.Second, newcomer.CaughtUp) {
			b.Fatalf("catch-up never completed: %+v", newcomer.Stats())
		}
		if newcomer.Stats().ChunksIn < 2 {
			b.Fatal("snapshot was not chunked")
		}
	}
}

// TCPSendRecv measures real-transport throughput: b.N data messages from
// one tcpnet endpoint to another over loopback, waiting for every
// receipt, with the default batching configuration. Besides ns/op it
// reports the realised coalescing factor as frames/write (>1 means the
// sender shipped multiple frames per syscall). The before/after of the
// batching change itself was measured against the pre-batching sender,
// which no runtime knob recreates: the sender always drains the whole
// backlog per write.
func TCPSendRecv(b *testing.B) {
	recvEp, err := tcpnet.New(tcpnet.Config{Self: 2, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = recvEp.Close() }()
	sendEp, err := tcpnet.New(tcpnet.Config{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Peers: map[types.ProcessID]string{2: recvEp.Addr()},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = sendEp.Close() }()

	m := &types.Message{
		Kind: types.KindData, Group: 1, Sender: 1, Origin: 1,
		Num: 1, Seq: 1, LDN: 0, Payload: payloads[0],
	}
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			if err := sendEp.Send(2, m); err != nil {
				return
			}
		}
	}()
	for got := 0; got < b.N; {
		in, ok := <-recvEp.Recv()
		if !ok {
			b.Fatal("receiver closed early")
		}
		in.Release() // borrowed-buffer contract: hand the read buffer back
		got++
	}
	b.StopTimer()
	if writes, frames := sendEp.BatchStats(); writes > 0 {
		b.ReportMetric(float64(frames)/float64(writes), "frames/write")
	}
}

// ClientRoundTrip measures the externally-driven write path end to end:
// one client session over loopback TCP against one daemon, each Put
// carrying request framing, a replica propose, the apply through the
// group's total order (single-member group, so no peer latency — the
// measured cost is the client/daemon stack itself), and the acked
// response. This is the per-request floor of the client protocol.
func ClientRoundTrip(b *testing.B) {
	net := newtop.NewNetwork()
	defer net.Close()
	d, err := daemon.Start(daemon.Config{
		Self:       1,
		Network:    net,
		ClientAddr: "127.0.0.1:0",
		Omega:      5 * time.Millisecond,
		Initial:    []newtop.ProcessID{1},
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	sess, err := client.Dial(d.ClientAddr())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = sess.Close() }()
	vals := make([]string, 64)
	for i := range vals {
		vals[i] = fmt.Sprintf("value-%02d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Put("bench:key", vals[i%len(vals)]); err != nil {
			b.Fatal(err)
		}
	}
}

// WALAppend measures the per-entry cost of the durable apply path's
// storage leg: framing one command into the active WAL segment plus the
// per-step Commit, under fsync=never so the measurement is the encode
// and write path rather than the disk's sync latency (which the fsync
// histogram tracks in production). The allocation gate pins the frame
// construction: the append path must not grow hidden per-entry garbage,
// because it runs once per acked write.
func WALAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "newtop-bench-wal-")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	st, err := storage.Open(storage.Options{Dir: dir, Policy: storage.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	l, err := st.OpenGroup(1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Recover(); err != nil {
		b.Fatal(err)
	}
	cmds := make([][]byte, 64)
	for i := range cmds {
		cmds[i] = []byte(fmt.Sprintf("put user:%04d value-%08d", i, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := storage.Entry{
			Pos:    types.LogPos{Group: 1, Index: uint64(i + 1)},
			Origin: 1,
			Cmd:    cmds[i%len(cmds)],
		}
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// RecoverReplay measures a whole restart's storage leg: open the data
// directory, scan and validate the snapshot + 4096-entry WAL (CRC per
// record), and replay every recovered command into a fresh state
// machine — the exact work a restarted daemon does before it can
// announce itself. One op = one full recovery.
func RecoverReplay(b *testing.B) {
	const entries = 4096
	dir, err := os.MkdirTemp("", "newtop-bench-recover-")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	// Build the on-disk state once: baseline snapshot, then a WAL tail.
	st, err := storage.Open(storage.Options{Dir: dir, Policy: storage.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	l, err := st.OpenGroup(1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Recover(); err != nil {
		b.Fatal(err)
	}
	if err := l.CutSnapshot(types.LogPos{Group: 1}, 0, rsm.NewKV().Snapshot()); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= entries; i++ {
		e := storage.Entry{
			Pos:    types.LogPos{Group: 1, Index: uint64(i)},
			Origin: 1,
			Cmd:    []byte(fmt.Sprintf("put user:%04d value-%08d", i%512, i)),
		}
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := storage.Open(storage.Options{Dir: dir, Policy: storage.FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		l, err := st.OpenGroup(1)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := l.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Entries) != entries || rec.Truncated != 0 {
			b.Fatalf("recovered %d entries (%d truncated), want %d clean", len(rec.Entries), rec.Truncated, entries)
		}
		kv := rsm.NewKV()
		if rec.Snapshot != nil {
			if err := kv.Restore(rec.Snapshot); err != nil {
				b.Fatal(err)
			}
		}
		for _, e := range rec.Entries {
			kv.Apply(e.Cmd)
		}
		if kv.Len() != 512 {
			b.Fatalf("replayed store has %d keys, want 512", kv.Len())
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// GroupFormation measures the §5.3 protocol end to end.
func GroupFormation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := sim.New(int64(i+1), sim.WithLatency(100*time.Microsecond, 300*time.Microsecond))
		ps := make([]types.ProcessID, 0, 5)
		for j := 1; j <= 5; j++ {
			c.AddProcess(core.Config{Self: types.ProcessID(j), Omega: 5 * time.Millisecond})
			ps = append(ps, types.ProcessID(j))
		}
		if err := c.CreateGroup(1, 7, core.Symmetric, ps); err != nil {
			b.Fatal(err)
		}
		ok := c.RunUntil(10*time.Second, func() bool {
			for _, p := range ps {
				if !c.Engine(p).GroupReady(7) {
					return false
				}
			}
			return true
		})
		if !ok {
			b.Fatal("formation never completed")
		}
	}
}
