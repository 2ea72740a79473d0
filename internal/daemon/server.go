package daemon

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"newtop"
	"newtop/internal/clientproto"
)

// writeTimeout bounds one client response write; a stuck client costs its
// own connection, nothing else.
const writeTimeout = 10 * time.Second

// clientServer is the daemon's client-protocol listener: one goroutine
// per connection, requests served against the daemon's serving replica.
type clientServer struct {
	d  *Daemon
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

func newClientServer(d *Daemon, addr string) (*clientServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &clientServer{d: d, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *clientServer) addr() string { return s.ln.Addr().String() }

func (s *clientServer) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *clientServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *clientServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var rbuf, wbuf []byte
	for {
		body, err := clientproto.ReadFrame(br, rbuf)
		if err != nil {
			return // client gone, or protocol violation: drop the conn
		}
		rbuf = body
		var resp clientproto.Response
		req, err := clientproto.ParseRequest(body)
		if err != nil {
			resp = clientproto.Response{Status: clientproto.StErr, Err: err.Error()}
		} else {
			resp = s.d.serveRequest(&req)
		}
		wbuf = clientproto.AppendResponse(wbuf[:0], &resp)
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

// placement is what a route step hands the op switch: the replica and store
// that serve the request, the group they replicate, and (sharded mode)
// the key's hash, which the write gate needs.
type placement struct {
	rep *newtop.Replica
	kv  *newtop.KV
	g   newtop.GroupID
	h   uint64
}

// serveRequest executes one client request. The mode's route step either
// picks the replica that serves it or answers on its own with a routing
// status — NOT_SERVING (go elsewhere) or RETRY (stay, the daemon is in a
// transitional state). Both modes then share one op switch and one STATUS
// builder; writes differ only in their gate (see serveWrite).
func (d *Daemon) serveRequest(req *clientproto.Request) clientproto.Response {
	route := d.routeLineage
	if d.smap != nil {
		route = d.routeShard
	}
	pl, answer, ok := route(req)
	if !ok {
		return answer
	}
	switch req.Op {
	case clientproto.OpStatus:
		return d.status(pl)
	case clientproto.OpGet:
		return d.serveRead(pl, req.Key, false)
	case clientproto.OpBarrierGet:
		return d.serveRead(pl, req.Key, true)
	case clientproto.OpPut:
		if err := clientproto.ValidKey(req.Key); err != nil {
			return clientproto.Response{Status: clientproto.StErr, Err: err.Error()}
		}
		if err := clientproto.ValidValue(req.Value); err != nil {
			// The library client rejects these before sending; enforce
			// the same contract against hand-rolled clients.
			return clientproto.Response{Status: clientproto.StErr, Err: err.Error()}
		}
		return d.serveWrite(pl, req.Key, "put "+req.Key+" "+req.Value)
	case clientproto.OpDel:
		if err := clientproto.ValidKey(req.Key); err != nil {
			return clientproto.Response{Status: clientproto.StErr, Err: err.Error()}
		}
		return d.serveWrite(pl, req.Key, "del "+req.Key)
	}
	return clientproto.Response{Status: clientproto.StErr, Err: "unknown op"}
}

// routeLineage is the single-group route step: every key is served by
// the daemon's serving replica, unless a transitional state answers
// first — NOT_SERVING while the daemon is still catching up into its
// first group, RETRY while it is mid-reconcile or mid-cut-over (everyone
// else is too, or will be).
func (d *Daemon) routeLineage(req *clientproto.Request) (placement, clientproto.Response, bool) {
	d.mu.Lock()
	rep, g := d.reps[d.serving], d.serving
	recon := d.recon[g]
	cutover := d.pendingInvites > 0
	d.mu.Unlock()

	// A formation vote is in flight: the serving pointer is about to
	// move. Writes acked into the old group NOW would fall outside the
	// cross-group delivery gate's snapshot-cut guarantee — a joiner
	// catching up in the successor group could miss them. Hold writes
	// until the cut-over lands (reads stay safe: the old replica's state
	// is still read-your-writes for everything it acked).
	if cutover && (req.Op == clientproto.OpPut || req.Op == clientproto.OpDel) {
		return placement{}, clientproto.Response{Status: clientproto.StRetry,
			RetryAfter: 10 * time.Millisecond, Reason: "group cut-over in progress"}, false
	}
	if rep == nil {
		return placement{}, clientproto.Response{Status: clientproto.StNotServing, Group: uint64(g), Addr: d.peerHint()}, false
	}
	// Status is pure observability — serve it even while catching up or
	// reconciling (it is how progress is watched from outside).
	if req.Op != clientproto.OpStatus && !rep.CaughtUp() {
		if recon {
			// Reconciling after a heal: transient and cluster-wide;
			// redirecting would just find another reconciling daemon.
			return placement{}, clientproto.Response{Status: clientproto.StRetry,
				RetryAfter: d.cfg.Settle / 4, Reason: "reconciling"}, false
		}
		// Catching up into the cluster (a join): incumbents can serve.
		if hint := d.peerHint(); hint != "" {
			return placement{}, clientproto.Response{Status: clientproto.StNotServing, Group: uint64(g), Addr: hint}, false
		}
		return placement{}, clientproto.Response{Status: clientproto.StRetry,
			RetryAfter: d.cfg.Settle / 4, Reason: "catching up"}, false
	}
	return placement{rep: rep, kv: d.kv, g: g}, clientproto.Response{}, true
}

// status builds the STATUS answer from the replica the route step chose:
// the serving replica in single-group mode, the meta replica in sharded
// mode, where Keys sums the hosted shards and Members counts them (the
// closest analog to a view size there).
func (d *Daemon) status(pl placement) clientproto.Response {
	var keys, members int
	var ready bool
	if d.smap != nil {
		keys, members = d.hostedShards()
		ready = d.ShardsReady()
	} else {
		keys, ready = d.kv.Len(), pl.rep.CaughtUp()
		if v, err := d.proc.View(pl.g); err == nil {
			members = v.Size()
		}
	}
	delivered, drops, queueDepth := d.obsStatus()
	durable, wal, snap := d.DurabilityStatus()
	return clientproto.Response{
		Status:     clientproto.StStatus,
		Self:       uint32(d.cfg.Self),
		Group:      uint64(pl.g),
		Applied:    pl.rep.AppliedSeq(),
		Digest:     pl.rep.Digest(),
		Keys:       uint32(keys),
		Ready:      ready,
		Members:    uint32(members),
		Delivered:  delivered,
		Drops:      drops,
		QueueDepth: queueDepth,
		Durable:    durable,
		WALGroup:   uint64(wal.Group),
		WALIndex:   wal.Index,
		SnapGroup:  uint64(snap.Group),
		SnapIndex:  snap.Index,
	}
}

// serveRead runs a read with read-your-writes consistency (every write
// this daemon acknowledged is visible), optionally behind a total-order
// barrier (linearizable).
func (d *Daemon) serveRead(pl placement, key string, barrier bool) clientproto.Response {
	if barrier {
		if err := pl.rep.Barrier(); err != nil {
			return retryOn(err)
		}
	}
	var (
		val   string
		found bool
	)
	if err := pl.rep.Read(func(newtop.StateMachine) { val, found = pl.kv.Get(key) }); err != nil {
		return retryOn(err)
	}
	return clientproto.Response{Status: clientproto.StOK, Found: found, Value: val}
}

// serveWrite proposes one command and acknowledges only after it has been
// applied through the group's total order — an acked write is replicated
// and survives this daemon's crash.
//
// The two failure points differ fundamentally: a failed Propose never
// entered the order, so RETRY is safe; a failed ack-wait AFTER a
// successful Propose (the serving replica closed mid-cut-over) leaves a
// command in flight that may well apply — answering RETRY there would
// make the client resubmit a write that is already ordered, a duplicate
// apply that can clobber someone else's later acked write. That case is
// the ambiguous outcome, and says so: UNKNOWN, the caller decides.
//
// The modes differ only in the write gate around that sequence: a racing
// cut-over in single-group mode, a moving or fenced key range in sharded
// mode.
func (d *Daemon) serveWrite(pl placement, key, cmd string) clientproto.Response {
	// Sharded, before proposing: a key inside a pending move's range, or
	// inside a fenced range, is refused — the write never entered the
	// order, so retrying is safe.
	if d.smap != nil && (d.smap.InPendingRange(pl.h) || pl.kv.FencedKey(key)) {
		return clientproto.Response{Status: clientproto.StRetry,
			RetryAfter: 25 * time.Millisecond, Reason: "key range moving between shards"}
	}
	if err := pl.rep.Propose([]byte(cmd)); err != nil {
		return retryOn(err)
	}
	if d.smap == nil {
		// Single-group: close the route's cut-over check/submit race.
		// Propose serializes through the node event loop — the same loop
		// that casts formation votes and bumps pendingInvites (before the
		// vote takes effect) — so by the time Propose returns, any vote
		// ordered BEFORE our submit is visible here, either as a
		// still-pending invite or as the serving group having already
		// moved past the one this write targeted. Seeing either means
		// this write may sit after the successor group's snapshot cut:
		// its outcome for the new group is ambiguous, and the ack must
		// say so instead of promising durability the joiner might not
		// have.
		d.mu.Lock()
		raced := d.pendingInvites > 0 || d.serving != pl.g
		d.mu.Unlock()
		if raced {
			return clientproto.Response{Status: clientproto.StUnknown,
				Err: "write raced a group cut-over"}
		}
	}
	if err := pl.rep.Read(func(newtop.StateMachine) {}); err != nil {
		return clientproto.Response{Status: clientproto.StUnknown,
			Err: "write proposed but not confirmed: " + err.Error()}
	}
	// Sharded, after the ack wait: if the range is fenced NOW, the fence
	// raced this write into the order and the apply may have rejected it
	// on every member — the only honest answer is UNKNOWN. An OK
	// therefore means the write was applied with no fence ordered before
	// it, which puts it inside any later snapshot cut: acked writes
	// survive the move by construction.
	if d.smap != nil && pl.kv.FencedKey(key) {
		return clientproto.Response{Status: clientproto.StUnknown,
			Err: "write raced a shard move"}
	}
	return clientproto.Response{Status: clientproto.StOK, Found: true}
}

// retryOn maps a replica error to a routing answer: replica/group
// transitions (cut-over closed the replica, the group was left) are
// transient — the serving pointer is already or will shortly be elsewhere
// on this same daemon — so the client should retry here.
func retryOn(err error) clientproto.Response {
	if errors.Is(err, newtop.ErrClosed) {
		return clientproto.Response{Status: clientproto.StRetry, Reason: "daemon shutting down"}
	}
	return clientproto.Response{Status: clientproto.StRetry, Reason: err.Error()}
}
