package clientproto

import (
	"bytes"
	"testing"
	"time"
)

// body strips the length header off one encoded frame.
func body(frame []byte) []byte { return frame[4:] }

// FuzzParseRequest feeds arbitrary bytes to the request decoder, the
// daemon's only input from outside the program: it must never panic, and
// anything it accepts must re-encode to the very same bytes.
func FuzzParseRequest(f *testing.F) {
	for op := OpGet; op <= OpStatus; op++ {
		f.Add(body(AppendRequest(nil, &Request{Op: op, Key: "k", Value: "v with spaces"})))
	}
	f.Add(body(AppendRequest(nil, &Request{Op: OpPut})))
	put := body(AppendRequest(nil, &Request{Op: OpPut, Key: "key", Value: "value"}))
	f.Add(put[:len(put)-2])
	f.Add([]byte{OpGet, 0xFF, 0xFF})
	f.Add([]byte{OpPut, 0, 1, 'k', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Add(append(bytes.Clone(put), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		if again := body(AppendRequest(nil, &req)); !bytes.Equal(again, data) {
			t.Fatalf("accepted body does not re-encode to itself:\n  %x\n  %x", data, again)
		}
	})
}

// FuzzParseResponse is FuzzParseRequest for the client's decoder. The
// seeds cover every status, STATUS/NOT_SERVING bodies cut at their old
// optional tails and mid-field (all of which must fail), and padded
// bodies.
func FuzzParseResponse(f *testing.F) {
	status := body(AppendResponse(nil, &Response{Status: StStatus, Self: 3, Group: 9,
		Applied: 50, Digest: 0xfeed, Keys: 10, Ready: true, Members: 3,
		Delivered: 77, Drops: 1, QueueDepth: 4,
		Durable: true, WALGroup: 9, WALIndex: 50, SnapGroup: 9, SnapIndex: 32}))
	redirect := body(AppendResponse(nil, &Response{Status: StNotServing, Group: 7,
		Addr: "host:1234", Epoch: 2, RangeLo: 1 << 62, RangeHi: 1 << 63}))
	seeds := [][]byte{
		body(AppendResponse(nil, &Response{Status: StOK, Found: true, Value: "v"})),
		body(AppendResponse(nil, &Response{Status: StOK})),
		body(AppendResponse(nil, &Response{Status: StRetry, RetryAfter: 25 * time.Millisecond, Reason: "reconciling"})),
		body(AppendResponse(nil, &Response{Status: StErr, Err: "empty key"})),
		body(AppendResponse(nil, &Response{Status: StUnknown, Err: "write raced a shard move"})),
		status,
		status[:len(status)-33],    // no durability fields
		status[:len(status)-33-24], // no observability fields either
		status[:len(status)-10],    // cut inside the durability fields
		append(bytes.Clone(status), 0),
		redirect,
		redirect[:len(redirect)-24], // no shard fields
		redirect[:len(redirect)-5],  // cut inside the shard fields
		append(bytes.Clone(redirect), 0),
		{StOK, 2, 0, 0, 0, 0},
		{StOK, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		{0},
		{},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ParseResponse(data)
		if err != nil {
			return
		}
		if again := body(AppendResponse(nil, &resp)); !bytes.Equal(again, data) {
			t.Fatalf("accepted body does not re-encode to itself:\n  %x\n  %x", data, again)
		}
	})
}
