package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestClientFrameErrors pins the framing rule every frame kind shares:
// a length prefix beyond MaxClientFrame is rejected before any payload
// is read.
func TestClientFrameErrors(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxClientFrame+1)
	if _, err := ClientFrameLen(hdr); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	binary.LittleEndian.PutUint32(hdr[:], MaxClientFrame)
	if n, err := ClientFrameLen(hdr); err != nil || n != MaxClientFrame {
		t.Fatalf("largest legal frame length: %d, %v", n, err)
	}
}

func v2RequestsForTest() []ClientRequestV2 {
	return []ClientRequestV2{
		{ID: 1, Consistency: Linearizable, Ops: []ClientOp{{Op: OpWrite, Key: 7, Val: []byte("hello")}}},
		{ID: 2, Consistency: Stale, Ops: []ClientOp{{Op: OpRead, Key: 9}}},
		{ID: 3, Consistency: Sequential, MinCycle: 41, Ops: []ClientOp{{Op: OpRead, Key: 0}}},
		{ID: 4, Consistency: Linearizable, Ops: []ClientOp{{Op: OpDelete, Key: ^uint64(0)}}},
		{ID: 5, Batch: true, Consistency: Sequential, MinCycle: 9, Ops: []ClientOp{
			{Op: OpWrite, Key: 1, Val: []byte("a")},
			{Op: OpRead, Key: 2},
			{Op: OpDelete, Key: 3},
		}},
		{ID: 6, Batch: true, Consistency: Linearizable, Ops: []ClientOp{{Op: OpRead, Key: 4}}},
		{ID: 7, Register: true},
		{ID: 8, Expire: true, Session: 99 | SessionIDBit},
		{ID: 9, Session: 12 | SessionIDBit, Seq: 5, Consistency: Linearizable,
			Ops: []ClientOp{{Op: OpWrite, Key: 3, Val: []byte("s")}}},
		{ID: 10, Batch: true, Session: 12 | SessionIDBit, Seq: 6, Consistency: Stale, Ops: []ClientOp{
			{Op: OpWrite, Key: 1, Val: []byte("a")},
			{Op: OpRead, Key: 2},
			{Op: OpDelete, Key: 3},
		}},
	}
}

func v2ResponsesForTest() []ClientResponseV2 {
	return []ClientResponseV2{
		{ID: 1, Status: ClientStatusOK, Cycle: 12, Val: []byte("v")},
		{ID: 2, Status: ClientStatusNil, Cycle: 3},
		{ID: 3, Status: ClientStatusErr, Code: CodeDraining, Val: []byte("draining")},
		{ID: 5, Batch: true, Cycle: 14, Results: []ClientResult{
			{Status: ClientStatusOK, Val: []byte("a")},
			{Status: ClientStatusNil},
			{Status: ClientStatusOK},
		}},
		{ID: 6, Batch: true, Code: CodeStalled, Results: []ClientResult{{Status: ClientStatusErr, Val: []byte("node stalled")}}},
		{ID: 7, Status: ClientStatusErr, Code: CodeSessionExpired, Cycle: 7, Val: []byte("session expired")},
		{ID: 8, Batch: true, Cycle: 20, Results: []ClientResult{
			{Status: ClientStatusOK},
			{Status: ClientStatusErr, Code: CodeSessionExpired, Val: []byte("session expired")},
		}},
	}
}

func TestClientV2RequestRoundTrip(t *testing.T) {
	for _, q := range v2RequestsForTest() {
		frame := AppendClientRequestV2(nil, &q)
		n, err := ClientFrameLen([4]byte(frame[:4]))
		if err != nil {
			t.Fatal(err)
		}
		if n != len(frame)-4 {
			t.Fatalf("frame length %d, payload %d", n, len(frame)-4)
		}
		got, err := ParseClientRequestV2(frame[4:])
		if err != nil {
			t.Fatalf("id %d: %v", q.ID, err)
		}
		if enc := AppendClientRequestV2(nil, &got); !bytes.Equal(enc, frame) {
			t.Fatalf("id %d: re-encode mismatch", q.ID)
		}
		if got.ID != q.ID || got.Batch != q.Batch || got.Consistency != q.Consistency ||
			got.MinCycle != q.MinCycle || len(got.Ops) != len(q.Ops) ||
			got.Register != q.Register || got.Expire != q.Expire ||
			got.Session != q.Session || got.Seq != q.Seq {
			t.Fatalf("round trip: got %+v want %+v", got, q)
		}
		for i := range q.Ops {
			if got.Ops[i].Op != q.Ops[i].Op || got.Ops[i].Key != q.Ops[i].Key ||
				!bytes.Equal(got.Ops[i].Val, q.Ops[i].Val) {
				t.Fatalf("op %d: got %+v want %+v", i, got.Ops[i], q.Ops[i])
			}
		}
	}
}

func TestClientV2ResponseRoundTrip(t *testing.T) {
	for _, resp := range v2ResponsesForTest() {
		frame := AppendClientResponseV2(nil, &resp)
		got, err := ParseClientResponseV2(frame[4:])
		if err != nil {
			t.Fatalf("id %d: %v", resp.ID, err)
		}
		if enc := AppendClientResponseV2(nil, &got); !bytes.Equal(enc, frame) {
			t.Fatalf("id %d: re-encode mismatch", resp.ID)
		}
		if got.ID != resp.ID || got.Batch != resp.Batch || got.Status != resp.Status ||
			got.Code != resp.Code || got.Cycle != resp.Cycle || !bytes.Equal(got.Val, resp.Val) ||
			len(got.Results) != len(resp.Results) {
			t.Fatalf("round trip: got %+v want %+v", got, resp)
		}
	}
}

func TestClientV2FrameErrors(t *testing.T) {
	// Truncated payload.
	if _, err := ParseClientRequestV2([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated v2 request parsed")
	}
	// Unknown frame kind.
	q := ClientRequestV2{ID: 1, Ops: []ClientOp{{Op: OpRead, Key: 2}}}
	frame := AppendClientRequestV2(nil, &q)
	frame[4+8] = 9
	if _, err := ParseClientRequestV2(frame[4:]); err == nil {
		t.Fatal("unknown v2 kind parsed")
	}
	// Unknown consistency.
	frame = AppendClientRequestV2(nil, &q)
	frame[4+8+1+1] = 7
	if _, err := ParseClientRequestV2(frame[4:]); err == nil {
		t.Fatal("unknown consistency parsed")
	}
	// Empty batch rejected.
	empty := ClientRequestV2{ID: 1, Batch: true}
	frame = AppendClientRequestV2(nil, &empty)
	if _, err := ParseClientRequestV2(frame[4:]); err == nil {
		t.Fatal("empty v2 batch parsed")
	}
	// Trailing garbage rejected.
	frame = AppendClientRequestV2(nil, &q)
	if _, err := ParseClientRequestV2(append(frame[4:], 0)); err == nil {
		t.Fatal("oversized v2 request parsed")
	}
	// A session frame with a zero session ID is non-canonical (it would
	// re-encode as the sessionless shape) and must be rejected.
	sq := ClientRequestV2{ID: 1, Session: 5 | SessionIDBit, Seq: 1,
		Ops: []ClientOp{{Op: OpWrite, Key: 2, Val: []byte("x")}}}
	frame = AppendClientRequestV2(nil, &sq)
	binary.LittleEndian.PutUint64(frame[4+8+1+1+1+8:], 0) // zero the session field
	if _, err := ParseClientRequestV2(frame[4:]); err == nil {
		t.Fatal("session op with zero session ID parsed")
	}
}
