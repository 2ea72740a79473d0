package clientproto

import (
	"testing"
	"time"
)

// body strips the length header off one encoded frame.
func body(frame []byte) []byte { return frame[4:] }

// FuzzParseRequest feeds arbitrary bytes to the request decoder, the
// daemon's only input from outside the program: it must never panic, and
// anything it accepts must re-encode to a frame that parses to the same
// request.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		again, err := ParseRequest(body(AppendRequest(nil, &req)))
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v", err)
		}
		if again != req {
			t.Fatalf("round trip diverges:\n  %+v\n  %+v", req, again)
		}
	})
}

// FuzzParseResponse is FuzzParseRequest for the client's decoder. The
// seeds cover every status, and STATUS/NOT_SERVING frames with their
// optional tails cut off whole and mid-field.
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
		status[:len(status)-33],    // no v3 durability tail
		status[:len(status)-33-24], // no v2 observability tail either
		status[:len(status)-10],    // cut inside the v3 tail
		redirect,
		redirect[:len(redirect)-24], // no v2 shard tail
		redirect[:len(redirect)-5],  // cut inside the shard tail
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
		again, err := ParseResponse(body(AppendResponse(nil, &resp)))
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v", err)
		}
		if again != resp {
			t.Fatalf("round trip diverges:\n  %+v\n  %+v", resp, again)
		}
	})
}
