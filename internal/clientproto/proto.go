// Package clientproto defines the framed TCP protocol spoken between a
// newtopd client listener and the public client package (newtop/client).
// It is deliberately tiny: length-prefixed frames, one request and one
// response struct, and explicit status codes for the routing decisions a
// client must make — serve, redirect, retry.
//
// # Framing
//
// Every frame is a 4-byte big-endian length followed by that many body
// bytes. Bodies are bounded by MaxFrame; an oversized length is a protocol
// error and the connection is dropped.
//
// # Requests
//
//	u8 op | u16 keyLen | key | u32 valLen | val
//
// Ops: OpGet, OpPut, OpDel, OpBarrierGet (linearizable read — the server
// runs a total-order barrier before reading), OpStatus.
//
// # Responses
//
// The first body byte is the status; the rest depends on it:
//
//	StOK         u8 found | u32 valLen | val
//	StNotServing u64 group | u16 addrLen | addr |
//	             u64 epoch | u64 rangeLo | u64 rangeHi
//	             — redirect: this daemon cannot serve; group names the
//	             serving group it knows of, addr (may be empty) is another
//	             daemon's client address. When epoch > 0 the redirect is
//	             a "wrong shard" hint: it carries the shard-map version
//	             and the hash arc [rangeLo, rangeHi) (rangeHi 0 = ring
//	             top) the named group owns, so the client can cache the
//	             route for every key in the arc and drop stale routes on
//	             an epoch bump
//	StRetry      u32 afterMillis | u16 reasonLen | reason — transient: the
//	             daemon is mid-catch-up/reconcile/cut-over; retry HERE
//	StStatus     u32 self | u64 group | u64 applied | u64 digest |
//	             u32 keys | u8 ready | u32 members |
//	             u64 delivered | u64 drops | u64 queueDepth |
//	             u8 durable | u64 walGroup | u64 walIndex |
//	             u64 snapGroup | u64 snapIndex
//	StErr        u16 msgLen | msg                    — the request itself
//	             was malformed; retrying is pointless
//	StUnknown    u16 msgLen | msg                    — a write was proposed
//	             but its application could not be confirmed; the outcome
//	             is ambiguous (clients surface ErrUnacked, never resend
//	             automatically)
//
// Client and daemon ship in one module, so each body has exactly one
// layout. A decoder reads every field; a body that ends early, carries
// bytes past its last field, or holds a flag byte other than 0 or 1 is
// an error. Whatever the decoders accept re-encodes to the same bytes.
package clientproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// MaxFrame bounds a single framed request or response.
const MaxFrame = 1 << 20

// MaxKeyLen bounds a key: the wire carries key lengths as uint16, and a
// longer key would silently misframe the request.
const MaxKeyLen = 1<<16 - 1

// MaxValueLen bounds a value so that any request fits MaxFrame with
// headroom for the op byte and length fields.
const MaxValueLen = MaxFrame - MaxKeyLen - 64

// Request operations.
const (
	OpGet byte = iota + 1
	OpPut
	OpDel
	OpBarrierGet
	OpStatus
)

// Response statuses.
const (
	StOK byte = iota + 1
	StNotServing
	StRetry
	StStatus
	StErr
	// StUnknown is the server-side ambiguous-write answer: the command
	// was proposed into the total order, but the daemon could not
	// confirm its application (e.g. the serving replica closed during a
	// cut-over mid-ack). Clients must surface it like a torn connection
	// (ErrUnacked) — resending is the caller's decision — never retry it
	// automatically: the first copy may well apply.
	StUnknown
)

// Request is one client request.
type Request struct {
	Op    byte
	Key   string
	Value string // OpPut only; may contain spaces
}

// Response is one server response; which fields are meaningful depends on
// Status (see the package comment).
type Response struct {
	Status byte

	// StOK
	Found bool
	Value string

	// StNotServing / StStatus
	Group uint64
	// StNotServing: another daemon's client address ("" when unknown)
	Addr string
	// StNotServing "wrong shard" hint (zero when the redirect is a
	// lineage redirect rather than a shard-routing one): the shard-map
	// epoch the hint is valid at and the hash arc the named group owns.
	Epoch   uint64
	RangeLo uint64
	RangeHi uint64 // exclusive; 0 means the top of the hash ring

	// StRetry
	RetryAfter time.Duration
	Reason     string

	// StStatus
	Self    uint32
	Applied uint64
	Digest  uint64
	Keys    uint32
	Ready   bool
	// Members is the serving group's current view size — the number of
	// machines an acked write is currently replicated across. A client
	// that needs more than view-level durability watches this: during a
	// partition it can drop to 1.
	Members uint32

	// StStatus observability: total-order deliveries this process has
	// emitted, messages silently dropped across all layers, and the
	// engine's received-but-undelivered queue depth.
	Delivered  uint64
	Drops      uint64
	QueueDepth uint64

	// StStatus durability: whether the daemon runs with a data
	// directory, the serving group's last WAL-appended log position and
	// its latest snapshot cut. Positions are (group incarnation, delivery
	// index); all-zero means no position yet (or durability off — check
	// Durable).
	Durable   bool
	WALGroup  uint64
	WALIndex  uint64
	SnapGroup uint64
	SnapIndex uint64

	// StErr
	Err string
}

// ValidKey is THE key rule, shared by client-side rejection and
// server-side StErr responses: non-empty, no space or newline (the KV
// command grammar), and within the wire format's uint16 length field.
func ValidKey(key string) error {
	if key == "" {
		return fmt.Errorf("empty key")
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("key of %d bytes exceeds %d", len(key), MaxKeyLen)
	}
	for i := 0; i < len(key); i++ {
		if key[i] == ' ' || key[i] == '\n' {
			return fmt.Errorf("key contains whitespace")
		}
	}
	return nil
}

// ValidValue bounds a value to what a request frame can carry.
func ValidValue(val string) error {
	if len(val) > MaxValueLen {
		return fmt.Errorf("value of %d bytes exceeds %d", len(val), MaxValueLen)
	}
	return nil
}

// AppendRequest appends req as one length-prefixed frame to dst.
func AppendRequest(dst []byte, req *Request) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, req.Op)
	dst = appendString16(dst, req.Key)
	dst = appendString32(dst, req.Value)
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

// AppendResponse appends resp as one length-prefixed frame to dst.
func AppendResponse(dst []byte, resp *Response) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, resp.Status)
	switch resp.Status {
	case StOK:
		dst = append(dst, b2u8(resp.Found))
		dst = appendString32(dst, resp.Value)
	case StNotServing:
		dst = binary.BigEndian.AppendUint64(dst, resp.Group)
		dst = appendString16(dst, resp.Addr)
		dst = binary.BigEndian.AppendUint64(dst, resp.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, resp.RangeLo)
		dst = binary.BigEndian.AppendUint64(dst, resp.RangeHi)
	case StRetry:
		dst = binary.BigEndian.AppendUint32(dst, uint32(resp.RetryAfter/time.Millisecond))
		dst = appendString16(dst, resp.Reason)
	case StStatus:
		dst = binary.BigEndian.AppendUint32(dst, resp.Self)
		dst = binary.BigEndian.AppendUint64(dst, resp.Group)
		dst = binary.BigEndian.AppendUint64(dst, resp.Applied)
		dst = binary.BigEndian.AppendUint64(dst, resp.Digest)
		dst = binary.BigEndian.AppendUint32(dst, resp.Keys)
		dst = append(dst, b2u8(resp.Ready))
		dst = binary.BigEndian.AppendUint32(dst, resp.Members)
		dst = binary.BigEndian.AppendUint64(dst, resp.Delivered)
		dst = binary.BigEndian.AppendUint64(dst, resp.Drops)
		dst = binary.BigEndian.AppendUint64(dst, resp.QueueDepth)
		dst = append(dst, b2u8(resp.Durable))
		dst = binary.BigEndian.AppendUint64(dst, resp.WALGroup)
		dst = binary.BigEndian.AppendUint64(dst, resp.WALIndex)
		dst = binary.BigEndian.AppendUint64(dst, resp.SnapGroup)
		dst = binary.BigEndian.AppendUint64(dst, resp.SnapIndex)
	case StErr, StUnknown:
		dst = appendString16(dst, resp.Err)
	}
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

// ReadFrame reads one length-prefixed frame body from r, reusing buf when
// it is large enough. io.EOF is returned untouched on a clean close
// between frames.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("clientproto: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("clientproto: short frame: %w", err)
	}
	return buf, nil
}

// ParseRequest decodes a request frame body.
func ParseRequest(body []byte) (Request, error) {
	var req Request
	d := decoder{buf: body}
	req.Op = d.u8()
	req.Key = d.string16()
	req.Value = d.string32()
	d.end()
	if d.err != nil {
		return Request{}, fmt.Errorf("clientproto: bad request: %w", d.err)
	}
	if req.Op < OpGet || req.Op > OpStatus {
		return Request{}, fmt.Errorf("clientproto: unknown op %d", req.Op)
	}
	return req, nil
}

// ParseResponse decodes a response frame body.
func ParseResponse(body []byte) (Response, error) {
	var resp Response
	d := decoder{buf: body}
	resp.Status = d.u8()
	switch resp.Status {
	case StOK:
		resp.Found = d.bool()
		resp.Value = d.string32()
	case StNotServing:
		resp.Group = d.u64()
		resp.Addr = d.string16()
		resp.Epoch = d.u64()
		resp.RangeLo = d.u64()
		resp.RangeHi = d.u64()
	case StRetry:
		resp.RetryAfter = time.Duration(d.u32()) * time.Millisecond
		resp.Reason = d.string16()
	case StStatus:
		resp.Self = d.u32()
		resp.Group = d.u64()
		resp.Applied = d.u64()
		resp.Digest = d.u64()
		resp.Keys = d.u32()
		resp.Ready = d.bool()
		resp.Members = d.u32()
		resp.Delivered = d.u64()
		resp.Drops = d.u64()
		resp.QueueDepth = d.u64()
		resp.Durable = d.bool()
		resp.WALGroup = d.u64()
		resp.WALIndex = d.u64()
		resp.SnapGroup = d.u64()
		resp.SnapIndex = d.u64()
	case StErr, StUnknown:
		resp.Err = d.string16()
	default:
		return Response{}, fmt.Errorf("clientproto: unknown status %d", resp.Status)
	}
	d.end()
	if d.err != nil {
		return Response{}, fmt.Errorf("clientproto: bad response: %w", d.err)
	}
	return resp, nil
}

func appendString16(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendString32(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decoder is a tiny cursor with sticky errors; every accessor returns the
// zero value after the first error.
type decoder struct {
	buf []byte
	err error
}

var (
	errShort    = errors.New("truncated field")
	errTrailing = errors.New("trailing bytes")
	errFlag     = errors.New("flag byte not 0 or 1")
)

// end fails the decode when bytes remain past the last field.
func (d *decoder) end() {
	if d.err == nil && len(d.buf) > 0 {
		d.err = errTrailing
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.err = errShort
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// bool reads a flag byte, which must be 0 or 1.
func (d *decoder) bool() bool {
	b := d.u8()
	if b > 1 && d.err == nil {
		d.err = errFlag
	}
	return b == 1
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) string16() string {
	n := d.take(2)
	if n == nil {
		return ""
	}
	return string(d.take(int(binary.BigEndian.Uint16(n))))
}

func (d *decoder) string32() string {
	n := d.take(4)
	if n == nil {
		return ""
	}
	ln := binary.BigEndian.Uint32(n)
	if uint32(len(d.buf)) < ln {
		d.err = errShort
		return ""
	}
	return string(d.take(int(ln)))
}
