package wire

import (
	"bytes"
	"testing"
)

func txnsForTest() []Txn {
	return []Txn{
		{Ops: []TxnOp{{Op: OpWrite, Key: 1, Val: []byte("v")}}},
		{Guards: []TxnGuard{{Kind: GuardValueEq, Key: 7, Val: nil}},
			Ops: []TxnOp{{Op: OpWrite, Key: 7, Val: []byte("me"), Ephemeral: true}}},
		{Guards: []TxnGuard{{Kind: GuardValueEq, Key: 7, Val: []byte("me")}},
			Ops: []TxnOp{{Op: OpDelete, Key: 7}}},
		{Guards: []TxnGuard{
			{Kind: GuardCycleLE, Key: 3, Cycle: 41},
			{Kind: GuardValueEq, Key: 4, Val: []byte{}},
		}, Ops: []TxnOp{
			{Op: OpWrite, Key: 3, Val: []byte("a")},
			{Op: OpWrite, Key: 4, Val: nil},
			{Op: OpDelete, Key: ^uint64(0)},
		}},
	}
}

func TestTxnRoundTrip(t *testing.T) {
	for i, txn := range txnsForTest() {
		enc := AppendTxn(nil, &txn)
		if len(enc) != TxnSize(&txn) {
			t.Fatalf("txn %d: TxnSize %d, encoded %d", i, TxnSize(&txn), len(enc))
		}
		got, err := ParseTxn(enc)
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if re := AppendTxn(nil, &got); !bytes.Equal(re, enc) {
			t.Fatalf("txn %d: re-encode mismatch", i)
		}
		if len(got.Guards) != len(txn.Guards) || len(got.Ops) != len(txn.Ops) {
			t.Fatalf("txn %d: shape changed: %+v", i, got)
		}
		for j := range txn.Guards {
			w, g := txn.Guards[j], got.Guards[j]
			if g.Kind != w.Kind || g.Key != w.Key || g.Cycle != w.Cycle ||
				!bytes.Equal(g.Val, w.Val) || (g.Val == nil) != (w.Val == nil) {
				t.Fatalf("txn %d guard %d: got %+v want %+v", i, j, g, w)
			}
		}
		for j := range txn.Ops {
			w, g := txn.Ops[j], got.Ops[j]
			if g.Op != w.Op || g.Key != w.Key || g.Ephemeral != w.Ephemeral || !bytes.Equal(g.Val, w.Val) {
				t.Fatalf("txn %d op %d: got %+v want %+v", i, j, g, w)
			}
		}
	}
}

func TestTxnErrors(t *testing.T) {
	// Empty txn rejected.
	empty := Txn{}
	if _, err := ParseTxn(AppendTxn(nil, &empty)); err == nil {
		t.Fatal("empty txn parsed")
	}
	// Read ops are not transactions.
	read := Txn{Ops: []TxnOp{{Op: OpRead, Key: 1}}}
	if _, err := ParseTxn(AppendTxn(nil, &read)); err == nil {
		t.Fatal("txn read op parsed")
	}
	// Ephemeral delete is meaningless.
	ed := Txn{Ops: []TxnOp{{Op: OpDelete, Key: 1, Ephemeral: true}}}
	if _, err := ParseTxn(AppendTxn(nil, &ed)); err == nil {
		t.Fatal("ephemeral delete parsed")
	}
	// Unknown guard kind.
	bg := Txn{Guards: []TxnGuard{{Kind: 9, Key: 1}}, Ops: []TxnOp{{Op: OpWrite, Key: 1}}}
	if _, err := ParseTxn(AppendTxn(nil, &bg)); err == nil {
		t.Fatal("unknown guard kind parsed")
	}
	// Truncation and trailing garbage.
	ok := Txn{Ops: []TxnOp{{Op: OpWrite, Key: 1, Val: []byte("v")}}}
	enc := AppendTxn(nil, &ok)
	if _, err := ParseTxn(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated txn parsed")
	}
	if _, err := ParseTxn(append(enc, 0)); err == nil {
		t.Fatal("oversized txn parsed")
	}
	// Guard count over the cap.
	big := Txn{Ops: []TxnOp{{Op: OpWrite, Key: 1}}}
	for i := 0; i < MaxTxnGuards+1; i++ {
		big.Guards = append(big.Guards, TxnGuard{Kind: GuardCycleLE, Key: uint64(i)})
	}
	if _, err := ParseTxn(AppendTxn(nil, &big)); err == nil {
		t.Fatal("oversized guard list parsed")
	}
}

func TestTxnResultRoundTrip(t *testing.T) {
	for _, res := range []TxnResult{
		{Committed: true, Failed: TxnFailedNone},
		{Committed: false, Failed: 0},
		{Committed: false, Failed: 3},
	} {
		enc := AppendTxnResult(nil, res)
		got, err := ParseTxnResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got != res {
			t.Fatalf("round trip: got %+v want %+v", got, res)
		}
	}
	// A "committed" result naming a failed guard is inconsistent.
	bad := AppendTxnResult(nil, TxnResult{Committed: true, Failed: 2})
	if _, err := ParseTxnResult(bad); err == nil {
		t.Fatal("inconsistent txn result parsed")
	}
}

func v3RequestsForTest() []ClientRequestV2 {
	return []ClientRequestV2{
		{ID: 20, Watch: true, WatchID: 1, WatchKey: 7, PrefixBits: 64},
		{ID: 21, Watch: true, WatchID: 2, WatchKey: 0, PrefixBits: 0, SinceCycle: 99},
		{ID: 22, Watch: true, WatchID: 3, WatchKey: 0xAB00000000000000, PrefixBits: 8},
		{ID: 23, Unwatch: true, WatchID: 2},
		{ID: 24, Txn: true, Session: 5 | SessionIDBit, Seq: 3,
			TxnGuards: []TxnGuard{{Kind: GuardValueEq, Key: 7}},
			TxnOps:    []TxnOp{{Op: OpWrite, Key: 7, Val: []byte("me"), Ephemeral: true}}},
		{ID: 25, Txn: true,
			TxnGuards: []TxnGuard{{Kind: GuardCycleLE, Key: 1, Cycle: 12}},
			TxnOps:    []TxnOp{{Op: OpWrite, Key: 1, Val: []byte("x")}, {Op: OpDelete, Key: 2}}},
		{ID: 26, Txn: true, TxnOps: []TxnOp{{Op: OpDelete, Key: 9}}},
		{ID: 27, Unwatch: true, WatchID: ^uint64(0)},
	}
}

func v3ResponsesForTest() []ClientResponseV2 {
	return []ClientResponseV2{
		{ID: 1, Event: true, Cycle: 40, Events: []Event{
			{Op: OpWrite, Key: 7, Val: []byte("v")},
			{Op: OpDelete, Key: 9},
		}},
		{ID: 2, Event: true, Cycle: 41, Overflow: true},
		{ID: 3, Event: true, Cycle: 42},
		{ID: 4, Event: true, Cycle: 43, Events: []Event{{Op: OpWrite, Key: 1}}},
	}
}

func TestClientV3RequestRoundTrip(t *testing.T) {
	for _, q := range append(v2RequestsForTest(), v3RequestsForTest()...) {
		frame := AppendClientRequestV3(nil, &q)
		n, err := ClientFrameLen([4]byte(frame[:4]))
		if err != nil {
			t.Fatal(err)
		}
		if n != len(frame)-4 {
			t.Fatalf("frame length %d, payload %d", n, len(frame)-4)
		}
		var got ClientRequestV2
		if err := ParseClientRequestV3Into(frame[4:], &got, nil); err != nil {
			t.Fatalf("id %d: %v", q.ID, err)
		}
		if enc := AppendClientRequestV3(nil, &got); !bytes.Equal(enc, frame) {
			t.Fatalf("id %d: re-encode mismatch", q.ID)
		}
		if got.ID != q.ID || got.Watch != q.Watch || got.Unwatch != q.Unwatch ||
			got.Txn != q.Txn || got.WatchID != q.WatchID || got.WatchKey != q.WatchKey ||
			got.PrefixBits != q.PrefixBits || got.SinceCycle != q.SinceCycle ||
			got.Session != q.Session || got.Seq != q.Seq ||
			len(got.TxnGuards) != len(q.TxnGuards) || len(got.TxnOps) != len(q.TxnOps) {
			t.Fatalf("round trip: got %+v want %+v", got, q)
		}
	}
}

func TestClientV3ResponseRoundTrip(t *testing.T) {
	for _, resp := range append(v2ResponsesForTest(), v3ResponsesForTest()...) {
		frame := AppendClientResponseV3(nil, &resp)
		got, err := ParseClientResponseV3(frame[4:])
		if err != nil {
			t.Fatalf("id %d: %v", resp.ID, err)
		}
		if enc := AppendClientResponseV3(nil, &got); !bytes.Equal(enc, frame) {
			t.Fatalf("id %d: re-encode mismatch", resp.ID)
		}
		if got.ID != resp.ID || got.Event != resp.Event || got.Overflow != resp.Overflow ||
			got.Cycle != resp.Cycle || len(got.Events) != len(resp.Events) {
			t.Fatalf("round trip: got %+v want %+v", got, resp)
		}
		for i := range resp.Events {
			w, g := resp.Events[i], got.Events[i]
			if g.Op != w.Op || g.Key != w.Key || !bytes.Equal(g.Val, w.Val) {
				t.Fatalf("event %d: got %+v want %+v", i, g, w)
			}
		}
	}
}

func TestClientV3FrameErrors(t *testing.T) {
	// Prefix bits beyond 64.
	q := ClientRequestV2{ID: 1, Watch: true, WatchID: 1, WatchKey: 2, PrefixBits: 65}
	frame := AppendClientRequestV3(nil, &q)
	var got ClientRequestV2
	if err := ParseClientRequestV3Into(frame[4:], &got, nil); err == nil {
		t.Fatal("watch with 65 prefix bits parsed")
	}
	// Txn frame with a malformed session ID.
	tq := ClientRequestV2{ID: 1, Txn: true, Session: 5, Seq: 1,
		TxnOps: []TxnOp{{Op: OpWrite, Key: 1}}}
	frame = AppendClientRequestV3(nil, &tq)
	if err := ParseClientRequestV3Into(frame[4:], &got, nil); err == nil {
		t.Fatal("txn with non-session ID parsed")
	}
	// Trailing garbage rejected on v3 kinds.
	wq := ClientRequestV2{ID: 1, Watch: true, WatchID: 1, WatchKey: 2, PrefixBits: 64}
	frame = AppendClientRequestV3(nil, &wq)
	if err := ParseClientRequestV3Into(append(frame[4:], 0), &got, nil); err == nil {
		t.Fatal("oversized v3 request parsed")
	}
	// Unknown event flags rejected.
	er := ClientResponseV2{ID: 1, Event: true, Cycle: 3}
	frame = AppendClientResponseV3(nil, &er)
	frame[4+8+1] = 0x80
	if _, err := ParseClientResponseV3(frame[4:]); err == nil {
		t.Fatal("unknown event flags parsed")
	}
	// The preamble is part of the wire contract.
	if ClientMagicV3 != [4]byte{0xC4, 'N', 'P', 0x03} {
		t.Fatalf("v3 preamble changed: % x", ClientMagicV3)
	}
}
