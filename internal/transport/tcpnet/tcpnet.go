// Package tcpnet implements the Newtop transport over real TCP
// connections, so that processes can run across machines ("communicating
// over the Internet", §2 of the paper).
//
// Each process listens on one address and knows a static address book of
// its peers. Outbound messages to a peer are carried, in order, over a
// single TCP connection driven by a dedicated sender goroutine — TCP's
// in-order byte stream gives the per-pair FIFO guarantee the protocol
// assumes. Frames are length-prefixed wire-codec messages. A connection
// failure models a link cut: queued and in-flight messages to that peer are
// dropped (the asynchronous-network loss semantics), and the next send
// attempts a fresh connection.
//
// A connection that ends is also evidence: when a peer's inbound
// connection closes and one probe dial to its address is refused, the
// peer's process is gone (its host still answers, nobody listens), and
// the endpoint queues a peer-down hint (transport.Inbound.Down) behind the
// peer's last frame. Every other outcome — a probe that connects or times
// out — is left to the protocol's time-silence suspector.
package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"newtop/internal/obs"
	"newtop/internal/transport"
	"newtop/internal/types"
	"newtop/internal/wire"
)

// MaxFrame bounds a single framed message on the wire.
const MaxFrame = 32 << 20

// writeTimeout bounds a single batch write; a timed-out write drops the
// connection, modelling a cut link.
const writeTimeout = 5 * time.Second

// Config configures an Endpoint.
type Config struct {
	// Self is this process's identifier.
	Self types.ProcessID
	// ListenAddr is the local address to accept peer connections on
	// (e.g. "127.0.0.1:7001").
	ListenAddr string
	// Peers maps every peer process to its listen address.
	Peers map[types.ProcessID]string
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// DialBackoff is how long a peer's sender waits after a failed dial
	// before attempting another (default 1s), doubling per consecutive
	// failure up to 8×DialBackoff and resetting on success. While the
	// sender is backing off, batches drained for that peer are dropped
	// immediately — the lossy-link model — instead of each paying a
	// fresh blocking dial of up to DialTimeout on the sender goroutine.
	DialBackoff time.Duration
	// Metrics, when set, receives the endpoint's observability series
	// (batch/dial counters, frames-per-write histogram, labeled drop
	// counters, buffer-pool tier hits). When nil the endpoint keeps a
	// private registry so BatchStats/DialStats still count.
	Metrics *obs.Registry
}

// Endpoint is a TCP-backed transport endpoint.
type Endpoint struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	senders map[types.ProcessID]*peerSender
	inConns map[net.Conn]bool
	closed  bool

	recvMu   sync.Mutex
	recvCond *sync.Cond
	queue    []transport.Inbound

	recv chan transport.Inbound
	done chan struct{}
	wg   sync.WaitGroup

	om epMetrics
}

var _ transport.Endpoint = (*Endpoint)(nil)

// New creates the endpoint and starts listening. Call Close to release the
// listener and all connections.
func New(cfg Config) (*Endpoint, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = time.Second
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ep := &Endpoint{
		cfg:     cfg,
		ln:      ln,
		senders: make(map[types.ProcessID]*peerSender),
		inConns: make(map[net.Conn]bool),
		recv:    make(chan transport.Inbound),
		done:    make(chan struct{}),
		om:      newEpMetrics(reg),
	}
	ep.recvCond = sync.NewCond(&ep.recvMu)
	ep.wg.Add(2)
	go ep.acceptLoop()
	go ep.pump()
	return ep, nil
}

// Addr returns the actual listen address (useful with ":0").
func (ep *Endpoint) Addr() string { return ep.ln.Addr().String() }

// BatchStats reports how many framed writes this endpoint has issued and
// how many frames they carried — frames/writes is the realised batching
// factor. It is a view over the endpoint's metrics registry.
func (ep *Endpoint) BatchStats() (writes, frames uint64) {
	return ep.om.batchWrites.Value(), ep.om.framesSent.Value()
}

// DialStats reports outbound dial attempts and how many of them failed —
// under backoff, a dead peer costs one attempt per backoff window, not
// one per drained burst. It is a view over the endpoint's metrics
// registry.
func (ep *Endpoint) DialStats() (attempts, failures uint64) {
	return ep.om.dialAttempts.Value(), ep.om.dialFailures.Value()
}

// Self implements transport.Endpoint.
func (ep *Endpoint) Self() types.ProcessID { return ep.cfg.Self }

// Recv implements transport.Endpoint.
func (ep *Endpoint) Recv() <-chan transport.Inbound { return ep.recv }

// Send implements transport.Endpoint. It never blocks on the network: the
// frame is marshalled into the peer sender's pending batch during the call
// and the message is not retained afterwards — callers may pass messages
// whose payload aliases a borrowed receive buffer (ring relay) or a
// recyclable arena slot.
func (ep *Endpoint) Send(dest types.ProcessID, m *types.Message) error {
	if dest == ep.cfg.Self {
		// Self-delivery short-circuits the network; the clone owns its
		// memory, so no buffer reference travels with it.
		ep.push(transport.Inbound{From: ep.cfg.Self, Msg: m.Clone()})
		return nil
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return transport.ErrClosed
	}
	ps, ok := ep.senders[dest]
	if !ok {
		addr, known := ep.cfg.Peers[dest]
		if !known {
			ep.mu.Unlock()
			return fmt.Errorf("%w: %v", transport.ErrUnknownPeer, dest)
		}
		ps = newPeerSender(ep, dest, addr)
		ep.senders[dest] = ps
		ep.wg.Add(1)
		go ps.run()
	}
	ep.mu.Unlock()
	ps.enqueue(m)
	return nil
}

// Close implements transport.Endpoint.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	senders := make([]*peerSender, 0, len(ep.senders))
	for _, s := range ep.senders {
		senders = append(senders, s)
	}
	conns := make([]net.Conn, 0, len(ep.inConns))
	for c := range ep.inConns {
		conns = append(conns, c)
	}
	ep.mu.Unlock()

	close(ep.done)
	_ = ep.ln.Close()
	for _, s := range senders {
		s.stop()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	ep.recvMu.Lock()
	ep.recvCond.Signal()
	ep.recvMu.Unlock()
	ep.wg.Wait()
	// Messages stranded in the queue keep their buffer references; hand
	// them back so pooled buffers are not lost to the GC.
	ep.recvMu.Lock()
	for i := range ep.queue {
		ep.queue[i].Release()
	}
	ep.queue = nil
	ep.recvMu.Unlock()
	return nil
}

func (ep *Endpoint) isClosed() bool {
	select {
	case <-ep.done:
		return true
	default:
		return false
	}
}

// push enqueues an inbound message (or peer-down hint); in.Buf (may be
// nil) is the borrowed transport buffer whose reference travels with it.
func (ep *Endpoint) push(in transport.Inbound) {
	ep.recvMu.Lock()
	defer ep.recvMu.Unlock()
	if ep.isClosed() {
		in.Release()
		return
	}
	ep.queue = append(ep.queue, in)
	ep.recvCond.Signal()
}

func (ep *Endpoint) pump() {
	defer ep.wg.Done()
	defer close(ep.recv)
	for {
		ep.recvMu.Lock()
		for len(ep.queue) == 0 && !ep.isClosed() {
			ep.recvCond.Wait()
		}
		if ep.isClosed() {
			ep.recvMu.Unlock()
			return
		}
		in := ep.queue[0]
		ep.queue[0] = transport.Inbound{}
		ep.queue = ep.queue[1:]
		if len(ep.queue) == 0 {
			ep.queue = nil
		}
		ep.recvMu.Unlock()
		select {
		case ep.recv <- in:
		case <-ep.done:
			in.Release()
			return
		}
	}
}

func (ep *Endpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			_ = conn.Close()
			return
		}
		ep.inConns[conn] = true
		ep.mu.Unlock()
		ep.wg.Add(1)
		go ep.readLoop(conn)
	}
}

// recvBufSize is the per-connection read buffer capacity. A buffer holds
// many frames (a whole sender batch, typically); messages decoded out of
// it borrow its storage and pin it via refcount until every consumer has
// released.
const recvBufSize = 64 << 10

// recvPool is the shared pool of connection read buffers. Shared across
// endpoints: buffers are identical and sync.Pool does the sizing.
var recvPool = wire.NewBufPool(recvBufSize)

// readLoop is the zero-copy receive path: it fills a pooled buffer from
// the connection, parses every complete length-prefixed frame in place,
// and pushes messages that borrow the buffer (one refcount reference per
// message, released by the consumer). The buffer is rewound in place when
// the reader holds the only reference — the steady state when consumers
// keep up — and swapped for a fresh pooled one otherwise, so a lagging
// consumer costs a pool cycle, never a copy.
func (ep *Endpoint) readLoop(conn net.Conn) {
	defer ep.wg.Done()
	defer func() {
		_ = conn.Close()
		ep.mu.Lock()
		delete(ep.inConns, conn)
		ep.mu.Unlock()
	}()
	// Hello: 4-byte peer process ID.
	var hello [4]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	from := types.ProcessID(binary.BigEndian.Uint32(hello[:]))

	cur := recvPool.Get(recvBufSize)
	ep.om.bufBase.Inc()
	defer func() { cur.Release() }()
	start, end := 0, 0 // unparsed bytes live in cur.Bytes()[start:end]
	for {
		if start == end && cur.Refs() == 1 {
			// Fully parsed and no outstanding borrowers: rewind in place.
			start, end = 0, 0
		}
		if end == len(cur.Bytes()) {
			// Out of room (a partial frame against the end, or borrowers
			// still pin earlier regions): move the unparsed tail into a
			// fresh buffer sized for the pending frame and drop the
			// reader's reference to the old one.
			need := recvBufSize
			if fs := frameSize(cur.Bytes()[start:end]); fs > need {
				need = fs
			}
			if need > recvBufSize {
				ep.om.bufOversize.Inc()
			} else {
				ep.om.bufBase.Inc()
			}
			nb := recvPool.Get(need)
			n := copy(nb.Bytes(), cur.Bytes()[start:end])
			cur.Release()
			cur = nb
			start, end = 0, n
		}
		n, err := conn.Read(cur.Bytes()[end:])
		if n > 0 {
			end += n
			var perr error
			if start, perr = ep.parseFrames(from, cur, start, end); perr != nil {
				return // framing or decode error: drop the connection
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
				ep.probePeer(from)
			}
			return
		}
	}
}

// probePeer runs after an identified peer's inbound connection ended with
// EOF or a reset: one dial to the peer's listen address, sending no hello
// (so the peer never takes the probe for a peer connection, and never
// probes back). A refused dial means the peer's process is gone, and a
// peer-down hint is queued behind the connection's last frame. A probe
// that connects (the peer merely dropped its outbound connection), times
// out (a host crash or partition) or fails any other way queues nothing.
func (ep *Endpoint) probePeer(p types.ProcessID) {
	addr, known := ep.cfg.Peers[p]
	if !known || ep.isClosed() {
		return
	}
	ep.om.peerProbes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), ep.cfg.DialTimeout)
	defer cancel()
	go func() { // Close must not wait out a probe's dial timeout
		select {
		case <-ep.done:
			cancel()
		case <-ctx.Done():
		}
	}()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err == nil {
		_ = conn.Close()
		return
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		return
	}
	ep.om.peerDown.Inc()
	ep.push(transport.Inbound{From: p, Down: true})
}

// frameSize returns the total framed size (header + body) of the frame at
// the head of buf, or 0 while the header is still incomplete.
func frameSize(buf []byte) int {
	if len(buf) < 4 {
		return 0
	}
	return 4 + int(binary.BigEndian.Uint32(buf))
}

// parseFrames decodes every complete frame in cur.Bytes()[start:end] with
// a borrowed-buffer decode and hands each message (plus one buffer
// reference) to the receive queue. It returns the new parse position.
func (ep *Endpoint) parseFrames(from types.ProcessID, cur *wire.Buf, start, end int) (int, error) {
	data := cur.Bytes()
	for end-start >= 4 {
		n := binary.BigEndian.Uint32(data[start:])
		if n > MaxFrame {
			ep.om.dropFrameTooBig.Inc()
			return start, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
		}
		total := 4 + int(n)
		if end-start < total {
			break
		}
		m, err := wire.UnmarshalBorrowed(data[start+4 : start+total])
		if err != nil {
			ep.om.dropDecode.Inc()
			return start, fmt.Errorf("tcpnet decode: %w", err)
		}
		cur.Retain()
		ep.push(transport.Inbound{From: from, Msg: m, Buf: cur})
		start += total
	}
	return start, nil
}

// errPeerGone marks a dial failure; the message batch is dropped.
var errPeerGone = errors.New("tcpnet: peer unreachable")
