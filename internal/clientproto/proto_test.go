package clientproto

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"
)

func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	frame := AppendRequest(nil, &req)
	body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := ParseRequest(body)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	return got
}

func roundTripResponse(t *testing.T, resp Response) Response {
	t.Helper()
	frame := AppendResponse(nil, &resp)
	body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := ParseResponse(body)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{Op: OpGet, Key: "user:1"},
		{Op: OpPut, Key: "user:1", Value: "a value with spaces"},
		{Op: OpDel, Key: "gone"},
		{Op: OpBarrierGet, Key: "fence"},
		{Op: OpStatus},
		{Op: OpPut, Key: "", Value: ""},
	} {
		if got := roundTripRequest(t, req); got != req {
			t.Errorf("round trip %+v -> %+v", req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range []Response{
		{Status: StOK, Found: true, Value: "v"},
		{Status: StOK, Found: false},
		{Status: StNotServing, Group: 7, Addr: "127.0.0.1:9999"},
		{Status: StNotServing, Group: 1},
		{Status: StNotServing, Group: 1<<31 + 3, Addr: "10.0.0.2:4100",
			Epoch: 12, RangeLo: 1 << 62, RangeHi: 1 << 63},
		{Status: StNotServing, Group: 1<<31 + 1, Addr: "10.0.0.3:4100",
			Epoch: 5, RangeLo: 3 << 62, RangeHi: 0},
		{Status: StRetry, RetryAfter: 250 * time.Millisecond, Reason: "reconciling"},
		{Status: StStatus, Self: 3, Group: 2, Applied: 99, Digest: 0xdeadbeef, Keys: 41, Ready: true, Members: 5},
		{Status: StStatus, Self: 1, Group: 4, Applied: 12, Ready: true, Members: 3,
			Delivered: 100, Drops: 2, QueueDepth: 7,
			Durable: true, WALGroup: 4, WALIndex: 12, SnapGroup: 2, SnapIndex: 8},
		{Status: StStatus, Self: 2, Durable: false, WALGroup: 0, WALIndex: 0},
		{Status: StErr, Err: "bad key"},
		{Status: StUnknown, Err: "write proposed but not confirmed"},
	} {
		if got := roundTripResponse(t, resp); got != resp {
			t.Errorf("round trip %+v -> %+v", resp, got)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ParseRequest([]byte{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := ParseRequest([]byte{99, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := ParseRequest([]byte{OpGet, 0, 10, 'x'}); err == nil {
		t.Error("truncated key accepted")
	}
	if _, err := ParseResponse([]byte{}); err == nil {
		t.Error("empty response accepted")
	}
	if _, err := ParseResponse([]byte{77}); err == nil {
		t.Error("unknown status accepted")
	}
	if _, err := ParseResponse([]byte{StOK, 1, 0, 0, 0, 9, 'x'}); err == nil {
		t.Error("truncated value accepted")
	}
}

func TestReadFrameBounds(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xff // 4 GiB-ish frame
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil); err == nil {
		t.Error("oversized frame accepted")
	}
	// Clean EOF between frames surfaces as io.EOF.
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)), nil); err != io.EOF {
		t.Errorf("clean close: err = %v, want io.EOF", err)
	}
	// A torn header is also a clean-enough close.
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0})), nil); err != io.EOF {
		t.Errorf("torn header: err = %v, want io.EOF", err)
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	var stream []byte
	stream = AppendRequest(stream, &Request{Op: OpPut, Key: "a", Value: "1"})
	stream = AppendRequest(stream, &Request{Op: OpGet, Key: "a"})
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	b1, err := ReadFrame(br, buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ParseRequest(b1)
	if err != nil || r1.Op != OpPut {
		t.Fatalf("frame 1: %+v %v", r1, err)
	}
	b2, err := ReadFrame(br, b1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ParseRequest(b2)
	if err != nil || r2.Op != OpGet || r2.Key != "a" {
		t.Fatalf("frame 2: %+v %v", r2, err)
	}
}

func TestValidKeyAndValueBounds(t *testing.T) {
	if err := ValidKey("ok-key"); err != nil {
		t.Errorf("good key rejected: %v", err)
	}
	long := string(make([]byte, MaxKeyLen+1))
	for _, bad := range []string{"", "has space", "has\nnewline", long} {
		if err := ValidKey(bad); err == nil {
			t.Errorf("key %q (len %d) accepted", bad[:min(len(bad), 12)], len(bad))
		}
	}
	// A key at exactly the bound is fine — it still frames correctly.
	if err := ValidKey(string(bytes.Repeat([]byte{'k'}, MaxKeyLen))); err != nil {
		t.Errorf("max-length key rejected: %v", err)
	}
	if err := ValidValue(string(make([]byte, MaxValueLen))); err != nil {
		t.Errorf("max-length value rejected: %v", err)
	}
	if err := ValidValue(string(make([]byte, MaxValueLen+1))); err == nil {
		t.Error("oversized value accepted")
	}
	// The request a maximal key+value produce still fits MaxFrame.
	frame := AppendRequest(nil, &Request{
		Op:    OpPut,
		Key:   string(bytes.Repeat([]byte{'k'}, MaxKeyLen)),
		Value: string(make([]byte, MaxValueLen)),
	})
	if len(frame)-4 > MaxFrame {
		t.Errorf("maximal valid request is %d bytes, exceeds MaxFrame", len(frame)-4)
	}
}

// TestParseRejectsCutAndPaddedBodies pins the one exact layout per
// status: a body cut inside its last fields, or carrying bytes past them,
// is an error rather than a response with zeroed fields.
func TestParseRejectsCutAndPaddedBodies(t *testing.T) {
	status := body(AppendResponse(nil, &Response{Status: StStatus, Self: 3, Group: 9,
		Applied: 50, Ready: true, Members: 3, Durable: true, WALGroup: 9, WALIndex: 50}))
	redirect := body(AppendResponse(nil, &Response{Status: StNotServing, Group: 7,
		Addr: "host:1234", Epoch: 2, RangeLo: 1 << 62, RangeHi: 1 << 63}))
	for name, b := range map[string][]byte{
		"STATUS cut 10 bytes into its durability fields": status[:len(status)-33+10],
		"STATUS cut inside its durability fields":        status[:len(status)-10],
		"STATUS without its durability fields":           status[:len(status)-33],
		"NOT_SERVING cut inside its shard fields":        redirect[:len(redirect)-5],
		"NOT_SERVING without its shard fields":           redirect[:len(redirect)-24],
		"STATUS with a trailing byte":                    append(bytes.Clone(status), 0),
		"NOT_SERVING with a trailing byte":               append(bytes.Clone(redirect), 0),
		"OK with a found flag of 2":                      {StOK, 2, 0, 0, 0, 0},
		"OK with a trailing byte":                        {StOK, 1, 0, 0, 0, 0, 0},
	} {
		if resp, err := ParseResponse(b); err == nil {
			t.Errorf("%s: accepted as %+v", name, resp)
		}
	}
	put := body(AppendRequest(nil, &Request{Op: OpPut, Key: "k", Value: "v"}))
	if req, err := ParseRequest(append(bytes.Clone(put), 'x')); err == nil {
		t.Errorf("request with a trailing byte accepted as %+v", req)
	}
}
