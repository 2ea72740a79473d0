// Package client is the application-side access path to a newtopd
// cluster: a session that routes requests across daemons, follows
// redirects, retries transient rejections, and fails over on connection
// loss — so a caller sees one key-value service that survives crashes,
// partitions and group cut-overs underneath it.
//
// # Sessions and consistency
//
// A Client is a session pinned to one daemon: every request goes to the
// pinned daemon until it dies or redirects, which is what makes plain Get
// read-your-writes — the daemon serves reads only after the session's own
// acknowledged writes have been applied there. When the pin moves (the
// daemon crashed, or redirected the session elsewhere), the next read is
// silently upgraded to a barrier read, so the new daemon first proves it
// has applied everything ordered before — including every write the old
// daemon acknowledged. BarrierGet requests that linearizable fence
// explicitly on any read.
//
// Writes are acknowledged only after the daemon has applied them through
// the group's total order; an acknowledged write is therefore replicated
// across the serving group's CURRENT VIEW, and survives the daemon's
// crash as long as that view has other members. Newtop is partitionable
// by design (no primary partition), so during a partition the serving
// view — and with it the ack's replication factor — can shrink, down to
// the pinned daemon alone; and when diverged sides later reconcile, a
// key written on both sides keeps only the merge policy's winner.
// Status().Members exposes the current replication factor for callers
// that want to detect degraded acks. A write whose connection died
// between request and response returns ErrUnacked: the outcome is
// unknown, and the client will NOT retry it (a retried write is not
// idempotent in general — the caller decides, knowing its own command
// semantics).
//
// Reads and Status are idempotent and are retried across endpoints
// automatically.
//
// # Sharded clusters
//
// Against a sharded fleet the session learns the shard map lazily: a
// NOT_SERVING answer from a sharded daemon carries the owning group, the
// hash arc it owns, the shard-map epoch, and a member's client address.
// The session caches these arcs and routes subsequent operations on keys
// in a known arc straight to the owner over a per-address connection
// pool, skipping the redirect hop. A hint with a newer epoch flushes the
// cache (the map changed — a split or move landed); a routed connection
// opened after any route change starts with a barrier-upgraded first
// read, so read-your-writes survives the hop to the range's new owner.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"newtop/internal/clientproto"
	"newtop/internal/obs"
	"newtop/internal/types"
)

// ErrUnacked is returned (wrapped) by Put and Del when the connection died
// after the request was sent but before a response arrived: the write may
// or may not have been applied. Retrying is the caller's decision.
var ErrUnacked = errors.New("client: write unacknowledged (outcome unknown)")

// ErrUnavailable is returned (wrapped) when no endpoint could serve the
// request within the failover budget.
var ErrUnavailable = errors.New("client: no endpoint available")

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("client: closed")

// Config tunes a client session. The zero value is usable.
type Config struct {
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds one request/response exchange on an established
	// connection (default 10s — barrier reads cross the whole total
	// order, so this must comfortably exceed the group's ω).
	OpTimeout time.Duration
	// FailoverTimeout bounds one logical operation across every retry,
	// redirect and failover (default 30s).
	FailoverTimeout time.Duration
	// RetryWait is the pause before retrying after a StRetry response
	// that carries no hint of its own (default 50ms).
	RetryWait time.Duration
	// MaxRetryWait caps a server-supplied RetryAfter hint (default 3s).
	// The hint is advisory: a buggy or hostile daemon must not be able to
	// park a session for minutes on one response. Clamps are counted in
	// the metrics registry (newtop_client_retry_clamped_total).
	MaxRetryWait time.Duration
	// Metrics, when set, receives the session's observability series
	// (per-op latency histograms, routing counters). When nil the client
	// keeps a private registry so Stats still counts.
	Metrics *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.FailoverTimeout <= 0 {
		cfg.FailoverTimeout = 30 * time.Second
	}
	if cfg.RetryWait <= 0 {
		cfg.RetryWait = 50 * time.Millisecond
	}
	if cfg.MaxRetryWait <= 0 {
		cfg.MaxRetryWait = 3 * time.Second
	}
	return cfg
}

// Stats counts a session's routing activity.
type Stats struct {
	Ops          uint64 // requests that completed (any final status)
	Failovers    uint64 // pin moved because a connection died
	Redirects    uint64 // pin moved because a daemon answered NOT_SERVING
	Retries      uint64 // RETRY responses honoured
	Unacked      uint64 // writes that returned ErrUnacked
	RetryClamps  uint64 // server RetryAfter hints clamped to MaxRetryWait
	ShardRouted  uint64 // ops routed directly via the learned shard map
	ShardRefresh uint64 // shard route cache flushes on an epoch bump
}

// clientMetrics holds the session's pre-resolved observability handles.
type clientMetrics struct {
	ops             *obs.Counter
	failovers       *obs.Counter
	redirects       *obs.Counter
	retries         *obs.Counter
	unacked         *obs.Counter
	retryClamps     *obs.Counter // server RetryAfter hints clamped to MaxRetryWait
	barrierUpgrades *obs.Counter // plain Gets upgraded to barrier reads after a moved pin
	shardRouted     *obs.Counter // ops routed directly via the learned shard map
	shardRefresh    *obs.Counter // shard route cache flushes on an epoch bump

	// Per-op end-to-end latency (including retries and failovers).
	opGet    *obs.Histogram
	opBGet   *obs.Histogram
	opPut    *obs.Histogram
	opDel    *obs.Histogram
	opStatus *obs.Histogram
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		ops:             reg.Counter("newtop_client_ops_total"),
		failovers:       reg.Counter("newtop_client_failovers_total"),
		redirects:       reg.Counter("newtop_client_redirects_total"),
		retries:         reg.Counter("newtop_client_retries_total"),
		unacked:         reg.Counter("newtop_client_unacked_total"),
		retryClamps:     reg.Counter("newtop_client_retry_clamped_total"),
		barrierUpgrades: reg.Counter("newtop_client_barrier_upgrades_total"),
		shardRouted:     reg.Counter("newtop_client_shard_routed_total"),
		shardRefresh:    reg.Counter("newtop_client_shard_refresh_total"),
		opGet:           reg.Histogram(`newtop_client_op_ns{op="get"}`),
		opBGet:          reg.Histogram(`newtop_client_op_ns{op="barrier_get"}`),
		opPut:           reg.Histogram(`newtop_client_op_ns{op="put"}`),
		opDel:           reg.Histogram(`newtop_client_op_ns{op="del"}`),
		opStatus:        reg.Histogram(`newtop_client_op_ns{op="status"}`),
	}
}

// opHist maps a request op to its latency histogram.
func (m *clientMetrics) opHist(op byte) *obs.Histogram {
	switch op {
	case clientproto.OpGet:
		return m.opGet
	case clientproto.OpBarrierGet:
		return m.opBGet
	case clientproto.OpPut:
		return m.opPut
	case clientproto.OpDel:
		return m.opDel
	case clientproto.OpStatus:
		return m.opStatus
	default:
		return nil
	}
}

// Client is one routed session. Safe for concurrent use; operations are
// serialized over the single pinned connection.
type Client struct {
	cfg Config

	// opMu serializes logical operations (one request/response cycle on
	// the pinned connection at a time). mu guards the fields below and
	// is only ever held briefly — never across network I/O or sleeps —
	// so Close and the read-only accessors are never stuck behind a
	// slow daemon.
	opMu sync.Mutex
	buf  []byte // reusable frame buffer (owned by the opMu holder)

	mu     sync.Mutex
	addrs  []endpoint // known endpoints: Dial arguments plus learned redirect hints
	next   int        // round-robin cursor over addrs
	pin    *pconn     // pinned connection (nil between pins)
	closed bool
	// closedCh is closed by Close so retry backoffs (which sleep without
	// holding mu) unblock immediately instead of serving out their wait.
	closedCh chan struct{}

	// Shard routing, learned lazily from NOT_SERVING shard hints.
	// shardArcs caches the hash arcs the session has been taught (all at
	// shardEpoch); pool holds one routed connection per owner address,
	// beside the pin.
	shardEpoch uint64
	shardArcs  []routeArc
	pool       map[string]*pconn

	reg *obs.Registry
	cm  clientMetrics
}

// routeArc is one cached shard-map arc: keys hashing into [lo, hi) are
// served by group at addr. hi == 0 means the ring top.
type routeArc struct {
	lo, hi uint64
	group  uint64
	addr   string
}

// pconn is one connection to a daemon: the pin, or a routed connection
// in the pool. fence marks that the next read over it must be
// barrier-upgraded: the connection is new (every connection but the
// Dial-time pin starts fenced), or the session's writes may have moved
// groups since it last proved catch-up. fence is only touched by the
// opMu holder; connections are published under mu so Close can interrupt
// an in-flight exchange.
type pconn struct {
	addr  string
	conn  net.Conn
	br    *bufio.Reader
	fence bool
}

// endpoint is one known daemon address. Learned (redirect-hint) addresses
// are forgotten after a few consecutive failed dials — daemons restarted
// on fresh ephemeral ports would otherwise pollute the sweep forever;
// bootstrap addresses (the Dial arguments) are kept no matter what.
// Learned endpoints are keyed per (group, endpoint): what group 9's
// redirects taught — and what its dial failures unteach — is group 9's
// knowledge alone, so one shard's dead hint cannot evict an address
// another shard still vouches for.
type endpoint struct {
	addr      string
	group     uint64 // the group whose redirect taught this address (0: bootstrap/unknown)
	bootstrap bool
	fails     int // consecutive failed dials
}

// learnedEvictAfter is how many consecutive failed dials evict a learned
// endpoint from the sweep.
const learnedEvictAfter = 3

// Dial opens a session against the cluster, pinning it to the first
// reachable endpoint. The endpoint list is a bootstrap set, not a limit:
// redirects teach the session new addresses as the cluster evolves.
func Dial(addrs ...string) (*Client, error) {
	return Config{}.Dial(addrs...)
}

// Dial opens a session with explicit tuning; see the package-level Dial.
func (cfg Config) Dial(addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: Dial needs at least one address")
	}
	c := &Client{
		cfg:      cfg.withDefaults(),
		closedCh: make(chan struct{}),
		pool:     make(map[string]*pconn),
	}
	c.reg = c.cfg.Metrics
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.cm = newClientMetrics(c.reg)
	for _, a := range addrs {
		c.addrs = append(c.addrs, endpoint{addr: a, bootstrap: true})
	}
	c.opMu.Lock()
	defer c.opMu.Unlock()
	pin, err := c.ensure()
	if err != nil {
		return nil, err
	}
	// Nothing was written before this pin: its first read needs no
	// barrier.
	pin.fence = false
	return c, nil
}

// Pinned returns the address of the daemon this session is currently
// pinned to ("" when disconnected).
func (c *Client) Pinned() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pin == nil {
		return ""
	}
	return c.pin.addr
}

// Endpoints returns every address the session knows (bootstrap set plus
// learned redirect hints).
func (c *Client) Endpoints() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.addrs))
	for i, e := range c.addrs {
		out[i] = e.addr
	}
	return out
}

// Stats snapshots the session's routing counters. It is a view over the
// session's metrics registry.
func (c *Client) Stats() Stats {
	return Stats{
		Ops:          c.cm.ops.Value(),
		Failovers:    c.cm.failovers.Value(),
		Redirects:    c.cm.redirects.Value(),
		Retries:      c.cm.retries.Value(),
		Unacked:      c.cm.unacked.Value(),
		RetryClamps:  c.cm.retryClamps.Value(),
		ShardRouted:  c.cm.shardRouted.Value(),
		ShardRefresh: c.cm.shardRefresh.Value(),
	}
}

// Metrics returns the session's observability registry (never nil).
func (c *Client) Metrics() *obs.Registry { return c.reg }

// Close ends the session. It does not wait for an in-flight operation:
// closing the pinned connection interrupts it, and the operation returns
// ErrClosed (reads) or ErrUnacked (a write that was already on the wire).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.closedCh)
	}
	c.dropLocked()
	for _, pc := range c.pool {
		c.closeConnLocked(pc)
	}
	return nil
}

// RouteEpoch returns the shard-map epoch of the session's route cache
// (0 until a shard hint has been learned).
func (c *Client) RouteEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardEpoch
}

// sleep pauses for d, returning false immediately if the session is
// closed meanwhile — a retry backoff must never outlive its session.
func (c *Client) sleep(d time.Duration) bool {
	if d <= 0 {
		return !c.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closedCh:
		return false
	case <-t.C:
		return true
	}
}

// Get reads a key with read-your-writes consistency (relative to this
// session's acknowledged writes). After a failover or redirect the read is
// upgraded to a barrier read once, restoring the guarantee on the new
// daemon.
func (c *Client) Get(key string) (string, bool, error) {
	return c.GetAt(time.Time{}, key)
}

// GetAt is Get with an explicit intended-start time for latency
// accounting: the op's histogram sample is measured from intended (the
// moment the operation was scheduled to fire) instead of from the call,
// so open-loop drivers record coordinated-omission-free latency. A zero
// intended behaves exactly like Get.
func (c *Client) GetAt(intended time.Time, key string) (string, bool, error) {
	if err := clientproto.ValidKey(key); err != nil {
		return "", false, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(&clientproto.Request{Op: clientproto.OpGet, Key: key}, true, intended)
	if err != nil {
		return "", false, err
	}
	return resp.Value, resp.Found, nil
}

// BarrierGet reads a key linearizably: the serving daemon runs a
// total-order barrier first, so the read observes every write — by any
// session — ordered before it.
func (c *Client) BarrierGet(key string) (string, bool, error) {
	return c.BarrierGetAt(time.Time{}, key)
}

// BarrierGetAt is BarrierGet with an explicit intended-start time (see
// GetAt).
func (c *Client) BarrierGetAt(intended time.Time, key string) (string, bool, error) {
	if err := clientproto.ValidKey(key); err != nil {
		return "", false, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(&clientproto.Request{Op: clientproto.OpBarrierGet, Key: key}, true, intended)
	if err != nil {
		return "", false, err
	}
	return resp.Value, resp.Found, nil
}

// Put writes key=value. A nil return means the write was applied through
// the total order (replicated); ErrUnacked means the outcome is unknown.
func (c *Client) Put(key, value string) error {
	return c.PutAt(time.Time{}, key, value)
}

// PutAt is Put with an explicit intended-start time (see GetAt).
func (c *Client) PutAt(intended time.Time, key, value string) error {
	if err := clientproto.ValidKey(key); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if err := clientproto.ValidValue(value); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	_, err := c.do(&clientproto.Request{Op: clientproto.OpPut, Key: key, Value: value}, false, intended)
	return err
}

// Del deletes a key, with Put's acknowledgement semantics.
func (c *Client) Del(key string) error {
	return c.DelAt(time.Time{}, key)
}

// DelAt is Del with an explicit intended-start time (see GetAt).
func (c *Client) DelAt(intended time.Time, key string) error {
	if err := clientproto.ValidKey(key); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	_, err := c.do(&clientproto.Request{Op: clientproto.OpDel, Key: key}, false, intended)
	return err
}

// Status reports the pinned daemon's view of the service: its process ID,
// serving group, applied sequence, key count, state digest, readiness,
// and the serving view's size — the replication factor acked writes
// currently get (see the package comment on durability during
// partitions).
type Status struct {
	Self    uint32
	Group   uint64
	Applied uint64
	Digest  uint64
	Keys    uint32
	Ready   bool
	Members uint32
	// Delivered, Drops and QueueDepth are the daemon's key health gauges
	// (total-order deliveries emitted, messages silently dropped across
	// all layers, received-but-undelivered backlog). Zero when the daemon
	// predates the STATUS observability extension.
	Delivered  uint64
	Drops      uint64
	QueueDepth uint64
	// Durable reports whether the daemon runs with a data directory
	// (WAL + snapshots). WALGroup/WALIndex are the serving group's last
	// WAL-appended log position and SnapGroup/SnapIndex its latest
	// snapshot cut — both (group incarnation, delivery index) pairs,
	// all-zero until the first write lands. False/zero when the daemon
	// predates the STATUS durability extension or runs diskless.
	Durable   bool
	WALGroup  uint64
	WALIndex  uint64
	SnapGroup uint64
	SnapIndex uint64
}

// Status queries the pinned daemon. Unlike the data operations it is
// served even by a daemon that is still catching up or reconciling
// (Ready false) — it is how progress is watched from outside.
func (c *Client) Status() (Status, error) {
	resp, err := c.do(&clientproto.Request{Op: clientproto.OpStatus}, true, time.Time{})
	if err != nil {
		return Status{}, err
	}
	return Status{
		Self: resp.Self, Group: resp.Group, Applied: resp.Applied,
		Digest: resp.Digest, Keys: resp.Keys, Ready: resp.Ready,
		Members: resp.Members, Delivered: resp.Delivered,
		Drops: resp.Drops, QueueDepth: resp.QueueDepth,
		Durable: resp.Durable, WALGroup: resp.WALGroup, WALIndex: resp.WALIndex,
		SnapGroup: resp.SnapGroup, SnapIndex: resp.SnapIndex,
	}, nil
}

// do runs one logical operation: route, retry, redirect, fail over, until
// a final response or the failover budget runs out. idempotent marks
// operations safe to resend after a torn exchange. intended, when
// non-zero, is the operation's scheduled arrival time: latency is then
// measured from it — not from when the op got the lock — so an open-loop
// driver's histograms are coordinated-omission-free (queueing delay ahead
// of the session counts against the service, as a real user experiences
// it). The operation lock is held throughout; the state lock only in
// slivers, so Close interrupts a stuck exchange rather than waiting for
// it.
func (c *Client) do(req *clientproto.Request, idempotent bool, intended time.Time) (clientproto.Response, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	start := time.Now()
	if !intended.IsZero() {
		start = intended
	}
	defer func() {
		// End-to-end latency, retries and failovers included: the number a
		// caller actually experiences.
		c.cm.opHist(req.Op).ObserveDuration(time.Since(start))
	}()
	deadline := time.Now().Add(c.cfg.FailoverTimeout)
	var lastErr error
	for {
		if c.isClosed() {
			return clientproto.Response{}, ErrClosed
		}
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("failover budget exhausted")
			}
			return clientproto.Response{}, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
		}
		pc, err := c.connFor(req)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return clientproto.Response{}, err
			}
			lastErr = err
			// No endpoint took a connection (or the routed owner is
			// unreachable and its route was forgotten): pause before the
			// next sweep — a crashed daemon may be restarting, and a dead
			// owner plus a peer re-teaching its address must not hot-loop
			// the session through dial failures.
			if !c.sleep(c.cfg.RetryWait) {
				return clientproto.Response{}, ErrClosed
			}
			continue
		}
		// A new connection, a moved pin or an ambiguous write downgrades
		// read-your-writes until one barrier read proves the daemon has
		// caught up past our acked writes.
		op := req.Op
		if pc.fence && op == clientproto.OpGet {
			op = clientproto.OpBarrierGet
			c.cm.barrierUpgrades.Inc()
		}
		wire := *req
		wire.Op = op
		resp, err := c.exchange(pc, &wire)
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.cm.failovers.Inc()
			c.closeConnLocked(pc)
			if !idempotent {
				// The request may have reached the daemon before the
				// connection died; the write's outcome is unknown.
				c.cm.unacked.Inc()
			}
			c.mu.Unlock()
			if !idempotent {
				return clientproto.Response{}, fmt.Errorf("%w: %v", ErrUnacked, err)
			}
			if closed {
				return clientproto.Response{}, ErrClosed
			}
			lastErr = err
			continue
		}
		c.mu.Lock()
		switch resp.Status {
		case clientproto.StOK, clientproto.StStatus:
			c.cm.ops.Inc()
			if req.Op == clientproto.OpGet || req.Op == clientproto.OpBarrierGet {
				pc.fence = false
			}
			c.mu.Unlock()
			return resp, nil
		case clientproto.StErr:
			c.cm.ops.Inc()
			c.mu.Unlock()
			return resp, fmt.Errorf("client: server rejected request: %s", resp.Err)
		case clientproto.StUnknown:
			// The server proposed the write but could not confirm its
			// application — the same ambiguity as a torn connection, so
			// the same answer: the caller decides whether to resend.
			// (Reads are side-effect free; just retry them.)
			if !idempotent {
				c.cm.ops.Inc()
				c.cm.unacked.Inc()
				pc.fence = true
				c.mu.Unlock()
				return clientproto.Response{}, fmt.Errorf("%w: %s", ErrUnacked, resp.Err)
			}
			c.cm.retries.Inc()
			c.mu.Unlock()
			if !c.sleep(c.cfg.RetryWait) {
				return clientproto.Response{}, ErrClosed
			}
			continue
		case clientproto.StNotServing:
			c.cm.redirects.Inc()
			// A hint is productive when it teaches something: a shard
			// route (new or re-owned arc) or a new (group, endpoint)
			// pair. Productive hints proceed immediately; unproductive
			// repeats pace. The pair is the pacing key — under the old
			// flat-address namespace, group 9 hinting an address that
			// group 7 already taught was "nothing new" and stalled a
			// whole RetryWait, even though it was this session's first
			// word about group 9's whereabouts.
			productive := false
			if resp.Epoch > 0 {
				productive = c.learnShardLocked(&resp)
			}
			if c.learnLocked(resp.Addr, resp.Group) {
				productive = true
			}
			switch {
			case pc != c.pin:
				// The routed connection answered fine — only the route
				// was stale. Keep the connection for arcs it still owns;
				// the refreshed cache redirects this key next iteration.
				lastErr = fmt.Errorf("stale shard route (group %d moved)", resp.Group)
			case resp.Epoch > 0 && productive:
				// A shard hint from a healthy pinned daemon: it simply
				// does not own this key's arc. The route cache now does;
				// keep the pin for the arcs (and Status) it still serves.
				lastErr = fmt.Errorf("key owned by shard group %d", resp.Group)
			default:
				c.closeConnLocked(pc)
				lastErr = fmt.Errorf("redirected away from %s (serving group %d)", pc.addr, resp.Group)
			}
			c.mu.Unlock()
			if !productive {
				// The hint taught nothing: without a pause, two daemons
				// pointing at each other would spin the session through
				// a hot dial/redirect loop for the whole failover budget.
				if !c.sleep(c.cfg.RetryWait) {
					return clientproto.Response{}, ErrClosed
				}
			}
			continue
		case clientproto.StRetry:
			c.cm.retries.Inc()
			c.mu.Unlock()
			wait := resp.RetryAfter
			if wait <= 0 {
				wait = c.cfg.RetryWait
			} else if wait > c.cfg.MaxRetryWait {
				// The hint is advisory — a daemon must not be able to
				// park this session for minutes on one response.
				wait = c.cfg.MaxRetryWait
				c.cm.retryClamps.Inc()
			}
			lastErr = fmt.Errorf("daemon busy: %s", resp.Reason)
			if !c.sleep(wait) {
				return clientproto.Response{}, ErrClosed
			}
			continue
		default:
			c.closeConnLocked(pc)
			c.mu.Unlock()
			lastErr = fmt.Errorf("unknown response status %d", resp.Status)
			continue
		}
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// exchange performs one request/response on the given connection, without
// holding the state lock — a concurrent Close interrupts it by closing
// the connection. Any error means the request may have reached the daemon
// (even a torn write can have); callers must treat non-idempotent
// requests as unacked.
func (c *Client) exchange(pc *pconn, req *clientproto.Request) (clientproto.Response, error) {
	c.buf = clientproto.AppendRequest(c.buf[:0], req)
	_ = pc.conn.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
	if _, err := pc.conn.Write(c.buf); err != nil {
		return clientproto.Response{}, err
	}
	body, err := clientproto.ReadFrame(pc.br, c.buf[:0])
	if err != nil {
		return clientproto.Response{}, err
	}
	c.buf = body // keep a grown response buffer for reuse
	return clientproto.ParseResponse(body)
}

// connFor returns the connection a request goes out on: the routed
// connection to its key's owner when the shard route cache knows one,
// else the pin. An unreachable routed owner is forgotten — its route and
// this group's learned endpoint — so the retry falls back to the
// redirect path through the sweep.
func (c *Client) connFor(req *clientproto.Request) (*pconn, error) {
	addr, grp, ok := c.routeFor(req)
	if !ok {
		return c.ensure()
	}
	pc, err := c.ensurePooled(addr)
	if err != nil && !errors.Is(err, ErrClosed) {
		c.mu.Lock()
		c.evictRouteLocked(addr)
		c.noteDialFailedLocked(addr, grp)
		c.mu.Unlock()
	}
	return pc, err
}

// ensure returns the pin, sweeping the endpoint list round-robin once
// when unpinned. Dials run without the state lock; the operation lock
// (held by the caller) serializes the sweep itself. A learned endpoint
// that keeps refusing dials is evicted from the sweep.
func (c *Client) ensure() (*pconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if pin := c.pin; pin != nil {
		c.mu.Unlock()
		return pin, nil
	}
	n := len(c.addrs)
	c.mu.Unlock()

	var lastErr error
	for i := 0; i < n; i++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if len(c.addrs) == 0 { // cannot happen (bootstrap addrs stay), be safe
			c.mu.Unlock()
			break
		}
		idx := c.next % len(c.addrs)
		addr, grp := c.addrs[idx].addr, c.addrs[idx].group
		c.mu.Unlock()

		conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)

		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			if conn != nil {
				_ = conn.Close()
			}
			return nil, ErrClosed
		}
		if err != nil {
			lastErr = err
			c.advanceCursorLocked(addr)
			c.noteDialFailedLocked(addr, grp)
			c.mu.Unlock()
			continue
		}
		c.noteDialOKLocked(addr)
		c.advanceCursorLocked(addr)
		c.pin = newPconn(addr, conn)
		pin := c.pin
		c.mu.Unlock()
		return pin, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no endpoints")
	}
	return nil, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}

// advanceCursorLocked moves the round-robin cursor past addr (looked up
// afresh — the slice may have been edited since the caller read it).
func (c *Client) advanceCursorLocked(addr string) {
	for i := range c.addrs {
		if c.addrs[i].addr == addr {
			c.next = (i + 1) % len(c.addrs)
			return
		}
	}
	if len(c.addrs) > 0 {
		c.next %= len(c.addrs)
	} else {
		c.next = 0
	}
}

// noteDialFailedLocked bumps an endpoint's consecutive-failure count and
// evicts learned endpoints that keep failing. The slice may have been
// reshuffled while the lock was released, so look the (group, address)
// key up again — eviction is per (group, endpoint): a dead hint from one
// group must not erase an address another group's redirects still vouch
// for.
func (c *Client) noteDialFailedLocked(addr string, group uint64) {
	for i := range c.addrs {
		if c.addrs[i].addr != addr || c.addrs[i].group != group {
			continue
		}
		c.addrs[i].fails++
		if !c.addrs[i].bootstrap && c.addrs[i].fails >= learnedEvictAfter {
			c.addrs = append(c.addrs[:i], c.addrs[i+1:]...)
			if c.next > i {
				c.next--
			}
			if len(c.addrs) > 0 {
				c.next %= len(c.addrs)
			} else {
				c.next = 0
			}
		}
		return
	}
}

// noteDialOKLocked clears an endpoint's failure streak.
func (c *Client) noteDialOKLocked(addr string) {
	for i := range c.addrs {
		if c.addrs[i].addr == addr {
			c.addrs[i].fails = 0
			return
		}
	}
}

// learnLocked adds a redirect hint to the endpoint set, keyed per
// (group, endpoint), and aims the round-robin cursor at it so the next
// pin attempt tries it first. It reports whether the hint taught a NEW
// (group, endpoint) pair.
func (c *Client) learnLocked(addr string, group uint64) bool {
	if addr == "" {
		return false
	}
	for i := range c.addrs {
		if c.addrs[i].addr == addr && (c.addrs[i].group == group || c.addrs[i].bootstrap) {
			c.next = i
			c.addrs[i].fails = 0 // the hint vouches for it afresh
			return false
		}
	}
	c.addrs = append(c.addrs, endpoint{addr: addr, group: group})
	c.next = len(c.addrs) - 1
	return true
}

// routeFor consults the shard route cache: for a keyed operation whose
// hash falls in a cached arc it returns the owner's address and group.
func (c *Client) routeFor(req *clientproto.Request) (string, uint64, bool) {
	switch req.Op {
	case clientproto.OpGet, clientproto.OpBarrierGet, clientproto.OpPut, clientproto.OpDel:
	default:
		return "", 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.shardArcs) == 0 {
		return "", 0, false
	}
	h := types.KeyHash(req.Key)
	for _, a := range c.shardArcs {
		if h >= a.lo && (a.hi == 0 || h < a.hi) {
			c.cm.shardRouted.Inc()
			return a.addr, a.group, true
		}
	}
	return "", 0, false
}

// learnShardLocked folds a shard hint into the route cache. A hint with
// a NEWER epoch flushes every cached arc first — the map changed, and
// arcs learned under the old epoch may route to groups that no longer
// own them; a hint with an older epoch is stale and ignored. It reports
// whether the cache changed (the hint was productive).
func (c *Client) learnShardLocked(resp *clientproto.Response) bool {
	if resp.Epoch < c.shardEpoch {
		return false
	}
	changed := false
	if resp.Epoch > c.shardEpoch {
		if c.shardEpoch != 0 {
			c.cm.shardRefresh.Inc()
		}
		c.shardEpoch = resp.Epoch
		c.shardArcs = c.shardArcs[:0]
		// Routed connections opened under the old map may now front
		// ranges whose owner changed; their next read must re-prove
		// read-your-writes.
		for _, pc := range c.pool {
			pc.fence = true
		}
		changed = true
	}
	if resp.Addr == "" {
		return changed
	}
	arc := routeArc{resp.RangeLo, resp.RangeHi, resp.Group, resp.Addr}
	for i := range c.shardArcs {
		if c.shardArcs[i].lo == resp.RangeLo && c.shardArcs[i].hi == resp.RangeHi {
			if c.shardArcs[i] == arc {
				return changed
			}
			c.shardArcs[i] = arc
			return true
		}
	}
	c.shardArcs = append(c.shardArcs, arc)
	return true
}

// evictRouteLocked forgets every cached arc routed at addr (its owner is
// unreachable); the next op on those keys falls back to the redirect
// path.
func (c *Client) evictRouteLocked(addr string) {
	kept := c.shardArcs[:0]
	for _, a := range c.shardArcs {
		if a.addr != addr {
			kept = append(kept, a)
		}
	}
	c.shardArcs = kept
}

// ensurePooled returns the routed connection for addr, dialing one if
// needed.
func (c *Client) ensurePooled(addr string) (*pconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if pc := c.pool[addr]; pc != nil {
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	pc := newPconn(addr, conn)
	c.pool[addr] = pc
	c.mu.Unlock()
	return pc, nil
}

// newPconn wraps a fresh connection. It starts fenced: its first read is
// barrier-upgraded, so read-your-writes holds across the hop to it.
func newPconn(addr string, conn net.Conn) *pconn {
	return &pconn{addr: addr, conn: conn, br: bufio.NewReader(conn), fence: true}
}

// closeConnLocked closes pc and forgets it: the pin is dropped, a routed
// connection leaves the pool.
func (c *Client) closeConnLocked(pc *pconn) {
	_ = pc.conn.Close()
	if c.pin == pc {
		c.pin = nil
	} else if c.pool[pc.addr] == pc {
		delete(c.pool, pc.addr)
	}
}

// dropLocked abandons the pinned connection.
func (c *Client) dropLocked() {
	if c.pin != nil {
		c.closeConnLocked(c.pin)
	}
}
