// Package transport defines the message-transport abstraction assumed by
// the Newtop protocol (§3 of the paper): uncorrupted, sequenced (FIFO)
// message transmission between a sender and each destination, provided both
// are alive and not partitioned from one another.
//
// Two implementations are provided: memnet (an in-memory network with
// configurable latency, partitions and crash injection, used by tests,
// examples and benchmarks) and tcpnet (real TCP, for running Newtop
// processes across machines). A third, fully deterministic discrete-event
// substrate lives in internal/sim and drives protocol engines directly
// without goroutines.
package transport

import (
	"errors"

	"newtop/internal/types"
	"newtop/internal/wire"
)

// Errors common to transport implementations.
var (
	// ErrClosed is returned by Send after the endpoint has been closed
	// (or its process crashed, in memnet).
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownPeer is returned when sending to a process the transport
	// has no route for.
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Inbound is a received message together with the transport-level sender.
// The sender is carried out-of-band from Message.Sender so that a faulty
// peer cannot spoof its identity past the transport.
//
// Ownership: when Buf is non-nil, Msg was decoded zero-copy and its byte
// fields alias that transport buffer. The consumer owns one reference and
// must call Release exactly once when it is done with Msg; anything it
// retains past that point must be sealed first with Msg.Own(). A nil Buf
// means Msg owns its memory outright (self-delivery, or a transport that
// copies).
//
// Down marks a peer-down hint instead of a message (Msg and Buf nil): the
// transport has evidence that From's process is gone — its connection
// ended and its address refuses new ones. The hint is queued behind the
// last message received from From, so everything From sent precedes it.
type Inbound struct {
	From types.ProcessID
	Down bool // beside From, so the hint adds no bytes to every Inbound
	Msg  *types.Message
	Buf  *wire.Buf
}

// Release hands the transport its buffer reference back (a no-op for
// owned messages). Msg's borrowed slices are invalid afterwards.
func (in *Inbound) Release() {
	if in.Buf != nil {
		in.Buf.Release()
	}
}

// Endpoint is one process's attachment to a network. Implementations
// guarantee per-destination FIFO: two messages sent by this endpoint to the
// same destination are received in the sent order (or a suffix is lost, on
// crash/partition — never reordered, never corrupted).
type Endpoint interface {
	// Self returns the process identifier bound to this endpoint.
	Self() types.ProcessID
	// Send transmits m to dest. It must not block on slow receivers
	// beyond internal queueing. Sending to self is allowed and loops
	// back through Recv.
	Send(dest types.ProcessID, m *types.Message) error
	// Recv returns the channel of inbound messages. The channel is
	// closed when the endpoint is closed.
	Recv() <-chan Inbound
	// Close detaches the endpoint. Messages in flight may be dropped.
	Close() error
}

// Multicast sends m to every destination in dests except self, in
// deterministic (given) order, returning the first error encountered.
// A crash of the sender mid-loop models the paper's interrupted multicast:
// some connected destinations receive the message and others do not.
func Multicast(ep Endpoint, dests []types.ProcessID, m *types.Message) error {
	var firstErr error
	for _, d := range dests {
		if d == ep.Self() {
			continue
		}
		if err := ep.Send(d, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
