package daemon

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"newtop"
	"newtop/client"
)

// quiet silences a test daemon; flip to t.Logf when debugging.
func quiet(string, ...any) {}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startCluster launches n daemons P1..Pn over one in-memory network, all
// bootstrapping group 1, each with a loopback client listener, and wires
// up the peer client-address books.
func startCluster(t *testing.T, n int, mutate func(id newtop.ProcessID, cfg *Config)) (*newtop.Network, map[newtop.ProcessID]*Daemon) {
	t.Helper()
	net := newtop.NewNetwork(newtop.WithSeed(7))
	initial := make([]newtop.ProcessID, n)
	for i := range initial {
		initial[i] = newtop.ProcessID(i + 1)
	}
	ds := make(map[newtop.ProcessID]*Daemon, n)
	for i := 1; i <= n; i++ {
		id := newtop.ProcessID(i)
		cfg := Config{
			Self:              id,
			Network:           net,
			ClientAddr:        "127.0.0.1:0",
			Omega:             15 * time.Millisecond,
			HealProbeInterval: 40 * time.Millisecond,
			Initial:           initial,
			Settle:            200 * time.Millisecond,
			DrainWindow:       250 * time.Millisecond,
			InitiateTimeout:   800 * time.Millisecond,
			Logf:              quiet,
		}
		if mutate != nil {
			mutate(id, &cfg)
		}
		d, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds[id] = d
	}
	addrs := make(map[newtop.ProcessID]string, n)
	for id, d := range ds {
		addrs[id] = d.ClientAddr()
	}
	for _, d := range ds {
		d.SetPeerClientAddrs(addrs)
	}
	t.Cleanup(func() {
		for _, d := range ds {
			_ = d.Close()
		}
		net.Close()
	})
	return net, ds
}

func clientConfig() client.Config {
	return client.Config{
		DialTimeout:     time.Second,
		OpTimeout:       10 * time.Second,
		FailoverTimeout: 20 * time.Second,
		RetryWait:       10 * time.Millisecond,
	}
}

func TestClientServesBasicOps(t *testing.T) {
	_, ds := startCluster(t, 3, nil)
	c, err := clientConfig().Dial(ds[1].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Put("user:1", "alice smith"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("user:1")
	if err != nil || !ok || v != "alice smith" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ = c.Get("absent"); ok {
		t.Error("absent key found")
	}
	// The acked write is replicated: a session against ANOTHER daemon
	// must see it behind a barrier read.
	c2, err := clientConfig().Dial(ds[3].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	v, ok, err = c2.BarrierGet("user:1")
	if err != nil || !ok || v != "alice smith" {
		t.Fatalf("BarrierGet at P3 = %q %v %v", v, ok, err)
	}
	if err := c.Del("user:1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ = c2.BarrierGet("user:1"); ok {
		t.Error("deleted key still visible at P3")
	}
	st, err := c.Status()
	if err != nil || st.Self != 1 || st.Group != 1 || !st.Ready {
		t.Fatalf("Status = %+v %v", st, err)
	}
}

// TestSupersededGroupLeftAfterCutover is the zombie-group regression test:
// after a join cuts service over to the successor group, the old group
// must be drained and LEFT — its ω-null traffic stops — instead of being
// multicast into forever.
func TestSupersededGroupLeftAfterCutover(t *testing.T) {
	_, ds := startCluster(t, 2, nil)
	// Some state to transfer.
	c, err := clientConfig().Dial(ds[1].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		if err := c.Put(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}

	// P3 joins by forming g2 = {1,2,3} and catching up.
	net3 := ds[1].cfg.Network
	d3, err := Start(Config{
		Self:              3,
		Network:           net3,
		ClientAddr:        "127.0.0.1:0",
		Omega:             15 * time.Millisecond,
		HealProbeInterval: 40 * time.Millisecond,
		Join:              2,
		Initial:           []newtop.ProcessID{1, 2, 3},
		Settle:            200 * time.Millisecond,
		DrainWindow:       250 * time.Millisecond,
		Logf:              quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d3.Close() })

	// Everyone cuts over to g2 and P3 catches up.
	waitFor(t, 20*time.Second, "cut-over to g2", func() bool {
		for _, d := range []*Daemon{ds[1], ds[2], d3} {
			rep, g := d.Replica()
			if g != 2 || rep == nil || !rep.CaughtUp() {
				return false
			}
		}
		return true
	})
	// The fix: within the drain window the incumbents leave g1 entirely.
	waitFor(t, 20*time.Second, "incumbents to leave g1", func() bool {
		for _, d := range []*Daemon{ds[1], ds[2]} {
			if _, err := d.Proc().View(1); !errors.Is(err, newtop.ErrLeftGroup) {
				return false
			}
		}
		return true
	})
	// And the regression count: post-cutover traffic in the old group is
	// zero — the send counter freezes.
	g1Sends := func() [2]uint64 {
		const name = `newtop_node_group_sends_total{group="1"}`
		return [2]uint64{ds[1].Proc().Metrics().Counters[name], ds[2].Proc().Metrics().Counters[name]}
	}
	before := g1Sends()
	time.Sleep(200 * time.Millisecond) // >13ω of would-be null traffic
	after := g1Sends()
	if before != after {
		t.Fatalf("old group still multicasting after cut-over: %v -> %v", before, after)
	}
	// Service is intact in g2: old state plus new writes.
	if err := c.Put("d", "4"); err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "1"}, {"d", "4"}} {
		if v, ok, err := c.BarrierGet(kv[0]); err != nil || !ok || v != kv[1] {
			t.Fatalf("post-cutover read %s = %q %v %v", kv[0], v, ok, err)
		}
	}
}

// TestStrandedHealTakeover is the stranded-heal regression test: the
// lowest-ID survivor (the would-be initiator of the merged group) crashes
// right after the heal is detected; the remaining daemons must not wait
// for its invitation forever — the next-lowest survivor takes over after
// the initiation timeout and the heal completes without it.
func TestStrandedHealTakeover(t *testing.T) {
	var healMu sync.Mutex
	heals := map[newtop.ProcessID]int{}
	net, ds := startCluster(t, 4, func(id newtop.ProcessID, cfg *Config) {
		if id == 1 {
			// P1 (the heal initiator) must not initiate before we crash
			// it; park its settle far away.
			cfg.Settle = time.Hour
		}
		cfg.OnEvent = func(ev newtop.Event) {
			if ev.Kind == newtop.EventHealDetected {
				healMu.Lock()
				heals[id]++
				healMu.Unlock()
			}
		}
	})

	// Seed state, then partition {1,2} | {3,4}.
	c, err := clientConfig().Dial(ds[2].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Put("base", "v"); err != nil {
		t.Fatal(err)
	}
	net.Partition([]newtop.ProcessID{1, 2}, []newtop.ProcessID{3, 4})
	waitFor(t, 20*time.Second, "sides to stabilise", func() bool {
		vA, errA := ds[2].Proc().View(1)
		vB, errB := ds[3].Proc().View(1)
		return errA == nil && errB == nil &&
			vA.Size() == 2 && !vA.Contains(3) && vB.Size() == 2 && !vB.Contains(1)
	})
	// Diverge: a write on each side.
	if err := c.Put("side:a", "A"); err != nil {
		t.Fatal(err)
	}
	cB, err := clientConfig().Dial(ds[4].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cB.Close() }()
	if err := cB.Put("side:b", "B"); err != nil {
		t.Fatal(err)
	}

	// Heal; wait until every survivor-to-be has detected peers back.
	net.Heal()
	waitFor(t, 20*time.Second, "heal detection at P2..P4", func() bool {
		healMu.Lock()
		defer healMu.Unlock()
		return heals[2] > 0 && heals[3] > 0 && heals[4] > 0
	})
	// Crash the initiator before it can form the merged group.
	net.Crash(1)
	_ = ds[1].Close()

	// The fix: P2 (next-lowest) takes over after InitiateTimeout; the
	// merged group forms over {2,3,4} and reconciles both sides' writes.
	waitFor(t, 60*time.Second, "takeover reconciliation", func() bool {
		for _, id := range []newtop.ProcessID{2, 3, 4} {
			rep, g := ds[id].Replica()
			if g < 2 || rep == nil || !rep.CaughtUp() {
				return false
			}
		}
		return true
	})
	// Digests agree and both sides' partition-era writes survived.
	rep2, _ := ds[2].Replica()
	rep3, _ := ds[3].Replica()
	if d2, d3 := rep2.Digest(), rep3.Digest(); d2 != d3 {
		t.Fatalf("post-merge digests diverge: %016x vs %016x", d2, d3)
	}
	for _, kv := range [][2]string{{"base", "v"}, {"side:a", "A"}, {"side:b", "B"}} {
		if v, ok, err := c.BarrierGet(kv[0]); err != nil || !ok || v != kv[1] {
			t.Fatalf("post-merge read %s = %q %v %v", kv[0], v, ok, err)
		}
	}
}

// TestHealEvaporatesWhenFarSideDies covers the takeover edge where the
// crashed initiator WAS the entire far side: with nobody left to merge
// with, the daemon must clear its reconciliation latch and keep serving
// in its current group instead of retrying a vacuous formation forever.
func TestHealEvaporatesWhenFarSideDies(t *testing.T) {
	var healMu sync.Mutex
	heals := map[newtop.ProcessID]int{}
	net, ds := startCluster(t, 3, func(id newtop.ProcessID, cfg *Config) {
		if id == 1 {
			cfg.Settle = time.Hour
		}
		cfg.OnEvent = func(ev newtop.Event) {
			if ev.Kind == newtop.EventHealDetected {
				healMu.Lock()
				heals[id]++
				healMu.Unlock()
			}
		}
	})
	net.Partition([]newtop.ProcessID{1}, []newtop.ProcessID{2, 3})
	waitFor(t, 20*time.Second, "sides to stabilise", func() bool {
		v, err := ds[2].Proc().View(1)
		return err == nil && v.Size() == 2 && !v.Contains(1)
	})
	net.Heal()
	waitFor(t, 20*time.Second, "heal detection at P2, P3", func() bool {
		healMu.Lock()
		defer healMu.Unlock()
		return heals[2] > 0 && heals[3] > 0
	})
	net.Crash(1)
	_ = ds[1].Close()

	// After Settle + InitiateTimeout the latch must clear with the
	// daemons still serving (in g1 — no merged group needed).
	time.Sleep(ds[2].cfg.Settle + ds[2].cfg.InitiateTimeout + ds[2].cfg.Settle + 500*time.Millisecond)
	for _, id := range []newtop.ProcessID{2, 3} {
		ds[id].mu.Lock()
		latched := ds[id].reconciling[1]
		ds[id].mu.Unlock()
		if latched {
			t.Errorf("P%d still latched on an evaporated heal", id)
		}
	}
	c, err := clientConfig().Dial(ds[2].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Put("after", "ok"); err != nil {
		t.Fatalf("daemon wedged after evaporated heal: %v", err)
	}
}

// TestFailedSuccessorFormationRollsBack pins the cut-over rollback: a
// join whose formation cannot complete (one invited member is dead) must
// not leave the incumbents pinned to a group that never formed — service
// falls back to the old group, which is neither drained nor left.
func TestFailedSuccessorFormationRollsBack(t *testing.T) {
	_, ds := startCluster(t, 2, nil)
	c, err := clientConfig().Dial(ds[1].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Put("pre", "v"); err != nil {
		t.Fatal(err)
	}

	// P3 joins with an address book that includes a dead P4: the g2
	// formation invite goes to {1,2,3,4}, P4 never votes, and the
	// formation times out at every member — after the incumbents have
	// already cut service over to g2.
	d3, err := Start(Config{
		Self:              3,
		Network:           ds[1].cfg.Network,
		ClientAddr:        "127.0.0.1:0",
		Omega:             15 * time.Millisecond,
		HealProbeInterval: 40 * time.Millisecond,
		Join:              2,
		Initial:           []newtop.ProcessID{1, 2, 3, 4},
		Settle:            200 * time.Millisecond,
		DrainWindow:       100 * time.Millisecond, // shorter than the formation timeout on purpose
		Logf:              quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d3.Close() })

	// The incumbents cut over to g2 on the invite, then roll back to g1
	// when its formation times out.
	waitFor(t, 30*time.Second, "rollback to g1", func() bool {
		for _, d := range []*Daemon{ds[1], ds[2]} {
			rep, g := d.Replica()
			if g != 1 || rep == nil {
				return false
			}
		}
		return true
	})
	// g1 was never drained or left (the drain must not fire on the
	// promise of a group that never formed).
	for _, d := range []*Daemon{ds[1], ds[2]} {
		if _, err := d.Proc().View(1); err != nil {
			t.Fatalf("g1 lost in the rollback: %v", err)
		}
	}
	// And the service still works end to end. A write racing the
	// rollback itself may surface as ErrUnacked (ambiguous by design);
	// the caller's resend must then land.
	for {
		err := c.Put("post", "v2")
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrUnacked) {
			t.Fatalf("write after rollback: %v", err)
		}
	}
	for _, kv := range [][2]string{{"pre", "v"}, {"post", "v2"}} {
		if v, ok, err := c.BarrierGet(kv[0]); err != nil || !ok || v != kv[1] {
			t.Fatalf("read %s after rollback = %q %v %v", kv[0], v, ok, err)
		}
	}
}

// TestMetricsEndpointAndStatusTail drives real traffic through a daemon
// and checks both introspection surfaces: the /metrics HTTP endpoint must
// expose nonzero key series in the Prometheus text format, and the STATUS
// response's observability tail must carry the delivery counter.
func TestMetricsEndpointAndStatusTail(t *testing.T) {
	_, ds := startCluster(t, 3, func(id newtop.ProcessID, cfg *Config) {
		if id == 1 {
			cfg.MetricsAddr = "127.0.0.1:0"
		}
	})
	if ds[1].MetricsAddr() == "" {
		t.Fatal("metrics listener did not bind")
	}
	c, err := clientConfig().Dial(ds[1].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for i := 0; i < 5; i++ {
		if err := c.Put(fmt.Sprintf("m:%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered == 0 {
		t.Errorf("STATUS tail Delivered = 0 after %d acked writes", 5)
	}

	resp, err := http.Get("http://" + ds[1].MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon runs on the in-memory network here, so the key series
	// are the engine's and the node's; each must be present and nonzero.
	for _, want := range []string{
		"newtop_engine_delivered_total ",
		`newtop_node_group_sends_total{group="1"} `,
	} {
		val, found := scrapeValue(string(body), want)
		if !found {
			t.Errorf("series %q missing from /metrics", want)
		} else if val == 0 {
			t.Errorf("series %q = 0 after traffic", want)
		}
	}
}

// scrapeValue finds the exposition line starting with prefix and parses
// its value.
func scrapeValue(body, prefix string) (uint64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseUint(strings.TrimSpace(line[len(prefix):]), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}
