package tcpnet

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"newtop/internal/types"
	"newtop/internal/wire"
)

// peerSender owns the single outbound TCP connection to one peer. One
// goroutine drains an unbounded queue and writes frames in order; any
// connection error drops the current connection (and the failed batch),
// and the next message triggers a re-dial. That maps TCP failures onto the
// protocol's lossy-but-FIFO link model.
//
// Sends are batched: every drain takes the whole queue and writes it as
// one buffered syscall, so whatever queues while a write is in progress
// rides in the next one. Newtop's traffic is bursty by construction — a
// multicast fan-out per stimulus, chunked snapshot streams, refute
// piggybacks — so coalescing turns a syscall per message into a syscall
// per burst (see the TCPSendRecv* rows of BENCH_core.json).
//
// Frames are marshalled at enqueue time, inside the caller's Send: the
// sender never retains a *types.Message, so a caller may hand it messages
// whose payload aliases a borrowed receive buffer (a ring relay writing
// inbound bytes straight back out) or an engine-arena slot that will be
// recycled — both are only read during the Send call itself.
type peerSender struct {
	ep   *Endpoint
	dest types.ProcessID
	addr string

	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte // encoded frames awaiting flush
	nframes int
	stopped bool

	conn  net.Conn // owned by run(); nil when disconnected
	spare []byte   // double buffer: swapped with pending at each drain

	// Dial backoff, owned by run(): after a failed dial, batches are
	// dropped without touching the network until retryAt passes. backoff
	// doubles per consecutive failure (capped) and resets on success, so
	// a dead peer costs one blocking dial per backoff window instead of
	// one per drained burst.
	retryAt time.Time
	backoff time.Duration
}

func newPeerSender(ep *Endpoint, dest types.ProcessID, addr string) *peerSender {
	ps := &peerSender{ep: ep, dest: dest, addr: addr}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

func (ps *peerSender) enqueue(m *types.Message) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.stopped {
		return
	}
	ps.pending = appendFrame(ps.pending, m)
	ps.nframes++
	ps.cond.Signal()
}

func (ps *peerSender) stop() {
	ps.mu.Lock()
	ps.stopped = true
	conn := ps.conn
	ps.cond.Signal()
	ps.mu.Unlock()
	if conn != nil {
		_ = conn.Close() // unblock a writer stuck in Write
	}
}

func (ps *peerSender) run() {
	defer ps.ep.wg.Done()
	defer func() {
		ps.mu.Lock()
		if ps.conn != nil {
			_ = ps.conn.Close()
			ps.conn = nil
		}
		ps.mu.Unlock()
	}()
	for {
		ps.mu.Lock()
		for len(ps.pending) == 0 && !ps.stopped {
			ps.cond.Wait()
		}
		if ps.stopped {
			ps.mu.Unlock()
			return
		}
		batch := ps.pending
		nframes := ps.nframes
		ps.pending = ps.spare[:0]
		ps.spare = nil
		ps.nframes = 0
		conn := ps.conn
		ps.mu.Unlock()
		reclaim := func() {
			ps.mu.Lock()
			if ps.spare == nil {
				ps.spare = batch
			}
			ps.mu.Unlock()
		}
		if len(batch) == 0 {
			reclaim()
			continue
		}

		if conn == nil {
			if !ps.retryAt.IsZero() && time.Now().Before(ps.retryAt) {
				ps.ep.om.dropBackoff.Add(uint64(nframes))
				reclaim()
				continue // batch lost: peer in dial backoff (cut link)
			}
			c, err := ps.dial()
			if err != nil {
				// Exponential backoff between dial attempts.
				if ps.backoff == 0 {
					ps.backoff = ps.ep.cfg.DialBackoff
					ps.ep.om.backoffPeers.Add(1)
				} else if ps.backoff < 8*ps.ep.cfg.DialBackoff {
					ps.backoff *= 2
				}
				ps.retryAt = time.Now().Add(ps.backoff)
				ps.ep.om.dropDialFailed.Add(uint64(nframes))
				reclaim()
				continue // batch lost: peer unreachable (cut link)
			}
			if ps.backoff != 0 {
				ps.ep.om.backoffPeers.Add(-1)
			}
			ps.backoff = 0
			ps.retryAt = time.Time{}
			ps.mu.Lock()
			if ps.stopped {
				ps.mu.Unlock()
				_ = c.Close()
				return
			}
			ps.conn = c
			conn = c
			ps.mu.Unlock()
		}

		// All frames of the batch in one write. A partial or failed write
		// drops the connection: the receiver's framing resyncs on the
		// fresh connection, and the tail of the batch is lost — exactly
		// the lossy-suffix link model the protocol assumes.
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := conn.Write(batch)
		reclaim()
		if err != nil {
			ps.ep.om.writeErrors.Inc()
			_ = conn.Close()
			ps.mu.Lock()
			ps.conn = nil
			ps.mu.Unlock()
			continue
		}
		ps.ep.om.batchWrites.Inc()
		ps.ep.om.framesSent.Add(uint64(nframes))
		ps.ep.om.framesPerWrite.Observe(int64(nframes))
	}
}

// appendFrame appends one length-prefixed wire frame to dst.
func appendFrame(dst []byte, m *types.Message) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = wire.Marshal(dst, m)
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

func (ps *peerSender) dial() (net.Conn, error) {
	ps.ep.om.dialAttempts.Inc()
	conn, err := net.DialTimeout("tcp", ps.addr, ps.ep.cfg.DialTimeout)
	if err != nil {
		ps.ep.om.dialFailures.Inc()
		return nil, errPeerGone
	}
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(ps.ep.cfg.Self))
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(hello[:]); err != nil {
		// A peer that accepts but can't take the hello is just as
		// unreachable as one that refuses the dial.
		ps.ep.om.dialFailures.Inc()
		_ = conn.Close()
		return nil, errPeerGone
	}
	return conn, nil
}
