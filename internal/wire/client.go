package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Client protocol v3. canopus-server's client port speaks exactly one
// protocol: this pipelined, length-prefixed binary protocol. A client
// may have any number of requests outstanding, and responses carry the
// request's correlation ID so they can complete out of submission order
// (within one connection the server preserves order, but clients must
// not rely on it). Server-push event frames carry a watch ID instead.
//
// Connection preamble (client -> server): the 4 bytes of ClientMagicV3.
// The server closes a connection that opens with anything else, without
// a reply.
//
// Frames in both directions are [u32 length][payload], little-endian,
// where length counts payload bytes only. Every payload opens with
// [u64 id][u8 kind]:
//
//	kind  request            response
//	1     op                 single-op result
//	2     batch              batch results
//	3     session register   -
//	4     session op         -
//	5     session batch      -
//	6     session expire     -
//	7     watch              event (server push)
//	8     unwatch            -
//	9     txn                -
//
// Every request other than a batch answers with a single-op result.
// Kinds 1–6 are laid out below under "Kinds 1–6", kinds 7–9 under
// "Kinds 7–9". The Go types keep their historical V2 names
// (ClientRequestV2, ClientResponseV2): kinds 1–6 were introduced by
// protocol v2, which the server no longer accepts.
//
// Statuses: OK (write acknowledged / read hit, value attached), Nil
// (read miss), Err (request rejected; value is a human-readable reason,
// code a machine-readable one).

// Client response statuses.
const (
	ClientStatusOK  uint8 = 0 // success; reads carry the value
	ClientStatusNil uint8 = 1 // read of an absent key
	ClientStatusErr uint8 = 2 // rejected; value holds the reason
)

// MaxClientFrame bounds client protocol frame sizes in both directions.
const MaxClientFrame = 16 << 20

// MaxBatchOps bounds the operation count of one v2 batch frame: a batch
// is submitted to the node in a single machine turn, so it must respect
// the same per-turn fairness cap as a pipelined group of singles.
const MaxBatchOps = 512

// ErrClientFrame is returned for malformed client protocol frames.
var ErrClientFrame = errors.New("wire: bad client frame")

// ClientFrameLen validates a frame length prefix read off the wire.
func ClientFrameLen(hdr [4]byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxClientFrame {
		return 0, fmt.Errorf("%w: oversized frame (%d bytes)", ErrClientFrame, n)
	}
	return int(n), nil
}

// --- Kinds 1–6: keyed operations and sessions ---
//
// Per-request consistency levels, multi-op batch frames,
// machine-readable error codes, replicated client sessions (exactly-once
// mutations), and a commit-cycle "read timestamp" on every response.
//
//	v2 request payload (single op):
//	  [u64 id][u8 kind=1][u8 op][u8 consistency][u64 minCycle][u64 key][u32 vlen][vlen bytes]
//	v2 request payload (batch):
//	  [u64 id][u8 kind=2][u8 consistency][u64 minCycle][u32 count]
//	  count x ([u8 op][u64 key][u32 vlen][vlen bytes])
//	v2 request payload (session register):
//	  [u64 id][u8 kind=3]
//	v2 request payload (session op):
//	  [u64 id][u8 kind=4][u8 op][u8 consistency][u64 minCycle][u64 session][u64 seq][u64 key][u32 vlen][vlen bytes]
//	v2 request payload (session batch):
//	  [u64 id][u8 kind=5][u8 consistency][u64 minCycle][u64 session][u64 firstSeq][u32 count]
//	  count x ([u8 op][u64 key][u32 vlen][vlen bytes])
//	v2 request payload (session expire):
//	  [u64 id][u8 kind=6][u64 session]
//	v2 response payload (single op):
//	  [u64 id][u8 kind=1][u8 status][u8 code][u64 cycle][u32 vlen][vlen bytes]
//	v2 response payload (batch):
//	  [u64 id][u8 kind=2][u8 code][u64 cycle][u32 count]
//	  count x ([u8 status][u8 code][u32 vlen][vlen bytes])
//
// Consistency levels: Linearizable routes through consensus.
// Sequential and Stale are served from the replica's committed state
// without entering a consensus cycle; Sequential additionally waits
// until the replica has committed at least minCycle (the client's last
// observed commit cycle), giving monotonic reads / read-your-writes
// within a client session. The response's cycle field is the commit
// cycle whose state served the request.
//
// Sessions: a register frame asks the serving node to commit a fresh
// session ID through a consensus cycle; the reply's value is the 8-byte
// little-endian ID. Session op / session batch frames carry that ID plus
// a per-session sequence number for each mutation (in a session batch,
// mutating ops consume seqs firstSeq, firstSeq+1, ... in frame order;
// reads consume none). Every replica's state machine keeps a per-session
// dedup table, so a mutation retried after a lost reply returns the
// cached committed result instead of applying twice. A session expire
// frame reclaims the session's replicated state; ops on an expired (or
// idle-reclaimed) session fail with CodeSessionExpired.

// Consistency is a client read-consistency level.
type Consistency uint8

const (
	// Linearizable orders the read through a consensus cycle: it
	// observes every write committed before it was issued, anywhere.
	Linearizable Consistency = 0
	// Sequential is served from the local replica's committed state once
	// the replica has committed the client's last observed cycle:
	// monotonic within a session, possibly stale globally.
	Sequential Consistency = 1
	// Stale is served immediately from the local replica's committed
	// state, however far behind it is.
	Stale Consistency = 2
)

func (c Consistency) String() string {
	switch c {
	case Linearizable:
		return "linearizable"
	case Sequential:
		return "sequential"
	case Stale:
		return "stale"
	default:
		return fmt.Sprintf("consistency(%d)", uint8(c))
	}
}

// v2 frame kinds.
const (
	v2KindOp           uint8 = 1
	v2KindBatch        uint8 = 2
	v2KindRegister     uint8 = 3
	v2KindSessionOp    uint8 = 4
	v2KindSessionBatch uint8 = 5
	v2KindExpire       uint8 = 6
)

// v2 response error codes (meaningful when a status is ClientStatusErr).
const (
	CodeNone           uint8 = 0 // no error
	CodeDraining       uint8 = 1 // server shutting down; retry elsewhere
	CodeStalled        uint8 = 2 // node halted (§6); retry elsewhere
	CodeBadRequest     uint8 = 3 // malformed or unsupported request
	CodeSessionExpired uint8 = 4 // session unknown or reclaimed; not retryable
	CodeWatchOverflow  uint8 = 5 // v3: watch resume point already evicted
)

// ClientOp is one keyed operation inside a v2 request.
type ClientOp struct {
	Op  Op
	Key uint64
	Val []byte // write payload; nil for reads and deletes
}

// ClientRequestV2 is one v2 request frame: a single operation, an
// ordered multi-op batch submitted in one machine turn, or a session
// management frame (Register / Expire). Consistency and MinCycle apply
// to every read in the frame. A non-zero Session selects the session
// frame shapes: Seq is the session sequence number of the frame's first
// mutating op, and subsequent mutating ops in a batch consume Seq+1,
// Seq+2, ... in frame order.
type ClientRequestV2 struct {
	ID          uint64
	Batch       bool // encode as a batch frame even when len(Ops) == 1
	Register    bool // session-register frame (no ops)
	Expire      bool // session-expire frame (Session set, no ops)
	Consistency Consistency
	MinCycle    uint64
	Session     uint64
	Seq         uint64
	Ops         []ClientOp

	// Event-plane extensions (kinds 7–9; see "Kinds 7–9").
	Watch      bool   // watch-registration frame
	Unwatch    bool   // watch-cancel frame
	Txn        bool   // transaction frame (TxnGuards/TxnOps carry the body)
	WatchID    uint64 // client-chosen watch identity, stable across reconnects
	WatchKey   uint64 // watched key (or prefix value under PrefixBits)
	PrefixBits uint8  // 64 = exact key, 0 = every key, n = top n key bits
	SinceCycle uint64 // replay events from this commit cycle on (0 = live only)
	TxnGuards  []TxnGuard
	TxnOps     []TxnOp
}

// ClientResult is one operation's outcome inside a v2 batch response.
type ClientResult struct {
	Status uint8
	Code   uint8
	Val    []byte
}

// ClientResponseV2 answers one ClientRequestV2. Cycle is the highest
// commit cycle involved in serving the frame (the read timestamp).
// Single-op responses use Status/Code/Val; batch responses use
// Code/Results.
type ClientResponseV2 struct {
	ID      uint64
	Batch   bool
	Status  uint8
	Code    uint8
	Cycle   uint64
	Val     []byte
	Results []ClientResult

	// Event-plane extensions: server-push event frames. ID carries the watch ID,
	// Cycle the commit cycle whose changes the frame delivers.
	Event    bool
	Overflow bool // watch killed: consumer too slow or resume point evicted
	Events   []Event
}

const (
	v2ReqOpFixed        = 8 + 1 + 1 + 1 + 8 + 8 + 4         // id, kind, op, consistency, minCycle, key, vlen
	v2ReqBatchFixed     = 8 + 1 + 1 + 8 + 4                 // id, kind, consistency, minCycle, count
	v2ReqElemFixed      = 1 + 8 + 4                         // op, key, vlen
	v2ReqRegisterFixed  = 8 + 1                             // id, kind
	v2ReqSessOpFixed    = 8 + 1 + 1 + 1 + 8 + 8 + 8 + 8 + 4 // id, kind, op, consistency, minCycle, session, seq, key, vlen
	v2ReqSessBatchFixed = 8 + 1 + 1 + 8 + 8 + 8 + 4         // id, kind, consistency, minCycle, session, firstSeq, count
	v2ReqExpireFixed    = 8 + 1 + 8                         // id, kind, session
	v2RespOpFixed       = 8 + 1 + 1 + 1 + 8 + 4             // id, kind, status, code, cycle, vlen
	v2RespBatchFixed    = 8 + 1 + 1 + 8 + 4                 // id, kind, code, cycle, count
	v2RespElemFixed     = 1 + 1 + 4                         // status, code, vlen
)

func validOp(o Op) bool { return o == OpRead || o == OpWrite || o == OpDelete }

// AppendClientRequestV2 appends q as a length-prefixed v2 frame to b.
// Single-op encoding requires exactly one op; Batch forces the batch
// frame shape regardless of op count. Register/Expire take precedence
// over the op shapes; a non-zero Session selects the session op/batch
// frames.
func AppendClientRequestV2(b []byte, q *ClientRequestV2) []byte {
	switch {
	case q.Register:
		b = putU32(b, uint32(v2ReqRegisterFixed))
		b = putU64(b, q.ID)
		return putU8(b, v2KindRegister)
	case q.Expire:
		b = putU32(b, uint32(v2ReqExpireFixed))
		b = putU64(b, q.ID)
		b = putU8(b, v2KindExpire)
		return putU64(b, q.Session)
	case q.Batch:
		n := v2ReqBatchFixed
		kind := v2KindBatch
		if q.Session != 0 {
			n, kind = v2ReqSessBatchFixed, v2KindSessionBatch
		}
		for i := range q.Ops {
			n += v2ReqElemFixed + len(q.Ops[i].Val)
		}
		b = putU32(b, uint32(n))
		b = putU64(b, q.ID)
		b = putU8(b, kind)
		b = putU8(b, uint8(q.Consistency))
		b = putU64(b, q.MinCycle)
		if q.Session != 0 {
			b = putU64(b, q.Session)
			b = putU64(b, q.Seq)
		}
		b = putU32(b, uint32(len(q.Ops)))
		for i := range q.Ops {
			op := &q.Ops[i]
			b = putU8(b, uint8(op.Op))
			b = putU64(b, op.Key)
			b = putBytes(b, op.Val)
		}
		return b
	case q.Session != 0:
		op := &q.Ops[0]
		b = putU32(b, uint32(v2ReqSessOpFixed+len(op.Val)))
		b = putU64(b, q.ID)
		b = putU8(b, v2KindSessionOp)
		b = putU8(b, uint8(op.Op))
		b = putU8(b, uint8(q.Consistency))
		b = putU64(b, q.MinCycle)
		b = putU64(b, q.Session)
		b = putU64(b, q.Seq)
		b = putU64(b, op.Key)
		return putBytes(b, op.Val)
	default:
		op := &q.Ops[0]
		b = putU32(b, uint32(v2ReqOpFixed+len(op.Val)))
		b = putU64(b, q.ID)
		b = putU8(b, v2KindOp)
		b = putU8(b, uint8(op.Op))
		b = putU8(b, uint8(q.Consistency))
		b = putU64(b, q.MinCycle)
		b = putU64(b, op.Key)
		return putBytes(b, op.Val)
	}
}

// ParseClientRequestV2 decodes one v2 request payload.
func ParseClientRequestV2(payload []byte) (ClientRequestV2, error) {
	var q ClientRequestV2
	if err := ParseClientRequestV2Into(payload, &q, nil); err != nil {
		return ClientRequestV2{}, err
	}
	return q, nil
}

// ParseClientRequestV2Into decodes one v2 request payload into *q,
// reusing q's Ops backing array when its capacity suffices, and copying
// values into *arena (when non-nil) instead of per-value allocations —
// the server's submit path shares one arena per accepted group. On
// error *q is left zeroed. The arena must not be reused while any
// parsed value is still alive.
func ParseClientRequestV2Into(payload []byte, q *ClientRequestV2, arena *[]byte) error {
	ops := q.Ops[:0]
	*q = ClientRequestV2{}
	r := &reader{b: payload}
	q.ID = r.u64()
	kind := r.u8()
	switch kind {
	case v2KindOp, v2KindSessionOp:
		var op ClientOp
		op.Op = Op(r.u8())
		q.Consistency = Consistency(r.u8())
		q.MinCycle = r.u64()
		if kind == v2KindSessionOp {
			q.Session = r.u64()
			q.Seq = r.u64()
		}
		op.Key = r.u64()
		op.Val = r.bytesArena(arena)
		q.Ops = append(ops, op)
	case v2KindBatch, v2KindSessionBatch:
		q.Batch = true
		q.Consistency = Consistency(r.u8())
		q.MinCycle = r.u64()
		if kind == v2KindSessionBatch {
			q.Session = r.u64()
			q.Seq = r.u64()
		}
		count := r.count(v2ReqElemFixed)
		if count == 0 && r.err == nil {
			*q = ClientRequestV2{}
			return fmt.Errorf("%w: empty batch", ErrClientFrame)
		}
		if cap(ops) < count {
			ops = make([]ClientOp, 0, count)
		}
		for i := 0; i < count; i++ {
			var op ClientOp
			op.Op = Op(r.u8())
			op.Key = r.u64()
			op.Val = r.bytesArena(arena)
			ops = append(ops, op)
		}
		q.Ops = ops
	case v2KindRegister:
		q.Register = true
	case v2KindExpire:
		q.Expire = true
		q.Session = r.u64()
	default:
		*q = ClientRequestV2{}
		return fmt.Errorf("%w: unknown v2 frame kind %d", ErrClientFrame, kind)
	}
	if r.err != nil || r.off != len(payload) {
		*q = ClientRequestV2{}
		return fmt.Errorf("%w: v2 request (%d bytes)", ErrClientFrame, len(payload))
	}
	// Session frame shapes require a well-formed session ID: zero would
	// re-encode as the sessionless shape (breaking decode∘encode
	// canonicality), and an ID without SessionIDBit could never have
	// been committed by a registration — accepting one would let a
	// client inject a raw Request.Client identity that bypasses the
	// dedup table and collides with connection-scoped reply routing.
	if (kind == v2KindSessionOp || kind == v2KindSessionBatch || kind == v2KindExpire) && !IsSessionID(q.Session) {
		err := fmt.Errorf("%w: invalid session ID %#x", ErrClientFrame, q.Session)
		*q = ClientRequestV2{}
		return err
	}
	if q.Consistency > Stale {
		err := fmt.Errorf("%w: unknown consistency %d", ErrClientFrame, uint8(q.Consistency))
		*q = ClientRequestV2{}
		return err
	}
	for i := range q.Ops {
		if !validOp(q.Ops[i].Op) {
			err := fmt.Errorf("%w: unknown op %d", ErrClientFrame, uint8(q.Ops[i].Op))
			*q = ClientRequestV2{}
			return err
		}
	}
	return nil
}

// AppendClientResponseV2 appends resp as a length-prefixed v2 frame to b.
func AppendClientResponseV2(b []byte, resp *ClientResponseV2) []byte {
	if resp.Batch {
		n := v2RespBatchFixed
		for i := range resp.Results {
			n += v2RespElemFixed + len(resp.Results[i].Val)
		}
		b = putU32(b, uint32(n))
		b = putU64(b, resp.ID)
		b = putU8(b, v2KindBatch)
		b = putU8(b, resp.Code)
		b = putU64(b, resp.Cycle)
		b = putU32(b, uint32(len(resp.Results)))
		for i := range resp.Results {
			b = putU8(b, resp.Results[i].Status)
			b = putU8(b, resp.Results[i].Code)
			b = putBytes(b, resp.Results[i].Val)
		}
		return b
	}
	b = putU32(b, uint32(v2RespOpFixed+len(resp.Val)))
	b = putU64(b, resp.ID)
	b = putU8(b, v2KindOp)
	b = putU8(b, resp.Status)
	b = putU8(b, resp.Code)
	b = putU64(b, resp.Cycle)
	return putBytes(b, resp.Val)
}

// ParseClientResponseV2 decodes one v2 response payload.
func ParseClientResponseV2(payload []byte) (ClientResponseV2, error) {
	r := &reader{b: payload}
	var resp ClientResponseV2
	resp.ID = r.u64()
	kind := r.u8()
	switch kind {
	case v2KindOp:
		resp.Status = r.u8()
		resp.Code = r.u8()
		resp.Cycle = r.u64()
		resp.Val = r.bytes()
	case v2KindBatch:
		resp.Batch = true
		resp.Code = r.u8()
		resp.Cycle = r.u64()
		count := r.count(v2RespElemFixed)
		resp.Results = make([]ClientResult, 0, count)
		for i := 0; i < count; i++ {
			var res ClientResult
			res.Status = r.u8()
			res.Code = r.u8()
			res.Val = r.bytes()
			resp.Results = append(resp.Results, res)
		}
	default:
		return ClientResponseV2{}, fmt.Errorf("%w: unknown v2 frame kind %d", ErrClientFrame, kind)
	}
	if r.err != nil || r.off != len(payload) {
		return ClientResponseV2{}, fmt.Errorf("%w: v2 response (%d bytes)", ErrClientFrame, len(payload))
	}
	if resp.Status > ClientStatusErr {
		return ClientResponseV2{}, fmt.Errorf("%w: unknown status %d", ErrClientFrame, resp.Status)
	}
	for i := range resp.Results {
		if resp.Results[i].Status > ClientStatusErr {
			return ClientResponseV2{}, fmt.Errorf("%w: unknown status %d", ErrClientFrame, resp.Results[i].Status)
		}
	}
	return resp, nil
}

// --- Kinds 7–9: the event plane ---
//
// Watch registration, cancellation and server-push event frames, plus
// multi-op transactions.
//
//	v3 request payload (watch):
//	  [u64 id][u8 kind=7][u64 watchID][u64 key][u8 prefixBits][u64 sinceCycle]
//	v3 request payload (unwatch):
//	  [u64 id][u8 kind=8][u64 watchID]
//	v3 request payload (txn):
//	  [u64 id][u8 kind=9][u64 session][u64 seq][txn body — see AppendTxn]
//	v3 response payload (event, server push, no request correlation):
//	  [u64 watchID][u8 kind=7][u8 flags][u64 cycle][u32 count]
//	  count x ([u8 op][u64 key][u32 vlen][vlen bytes])
//
// A watch delivers every committed change matching (key, prefixBits) in
// commit-cycle order, one event frame per cycle, gap-free: sinceCycle
// asks the server to replay retained history first, which is how a
// client resumes a watch after failing over to another replica. Flags
// bit 0 marks the terminal overflow frame: the server evicted history
// the watch still needed, or the connection could not keep up; the
// watch is dead and the client must re-register (accepting the gap).
//
// A txn frame answers with a v2 single-op response whose value is the
// encoded TxnResult. Session and seq make a txn exactly-once across
// failover, exactly like a session mutation; session 0 submits the txn
// without dedup (at-most-once).

// ClientMagicV3 is the protocol-v3 connection preamble.
var ClientMagicV3 = [4]byte{0xC4, 'N', 'P', 0x03}

// v3 frame kinds (requests 7–9, response 7).
const (
	v3KindWatch   uint8 = 7
	v3KindUnwatch uint8 = 8
	v3KindTxn     uint8 = 9
	v3KindEvent   uint8 = 7
)

const (
	v3ReqWatchFixed   = 8 + 1 + 8 + 8 + 1 + 8 // id, kind, watchID, key, prefixBits, sinceCycle
	v3ReqUnwatchFixed = 8 + 1 + 8             // id, kind, watchID
	v3ReqTxnFixed     = 8 + 1 + 8 + 8         // id, kind, session, seq (+ txn body)
	v3RespEventFixed  = 8 + 1 + 1 + 8 + 4     // watchID, kind, flags, cycle, count
	v3RespEventElem   = 1 + 8 + 4             // op, key, vlen
)

const v3EventFlagOverflow uint8 = 1 << 0

// AppendClientRequestV3 appends q as a length-prefixed v3 frame to b.
// The v3 shapes (Watch / Unwatch / Txn) take precedence; any other
// request encodes exactly as v2.
func AppendClientRequestV3(b []byte, q *ClientRequestV2) []byte {
	switch {
	case q.Watch:
		b = putU32(b, uint32(v3ReqWatchFixed))
		b = putU64(b, q.ID)
		b = putU8(b, v3KindWatch)
		b = putU64(b, q.WatchID)
		b = putU64(b, q.WatchKey)
		b = putU8(b, q.PrefixBits)
		return putU64(b, q.SinceCycle)
	case q.Unwatch:
		b = putU32(b, uint32(v3ReqUnwatchFixed))
		b = putU64(b, q.ID)
		b = putU8(b, v3KindUnwatch)
		return putU64(b, q.WatchID)
	case q.Txn:
		t := Txn{Guards: q.TxnGuards, Ops: q.TxnOps}
		b = putU32(b, uint32(v3ReqTxnFixed+TxnSize(&t)))
		b = putU64(b, q.ID)
		b = putU8(b, v3KindTxn)
		b = putU64(b, q.Session)
		b = putU64(b, q.Seq)
		return AppendTxn(b, &t)
	default:
		return AppendClientRequestV2(b, q)
	}
}

// ParseClientRequestV3Into decodes one v3 request payload into *q with
// the same reuse and arena contract as ParseClientRequestV2Into. Every
// v2 frame kind is accepted unchanged.
func ParseClientRequestV3Into(payload []byte, q *ClientRequestV2, arena *[]byte) error {
	if len(payload) < 9 || payload[8] < v3KindWatch {
		return ParseClientRequestV2Into(payload, q, arena)
	}
	guards, tops := q.TxnGuards[:0], q.TxnOps[:0]
	ops := q.Ops[:0]
	*q = ClientRequestV2{}
	r := &reader{b: payload}
	q.ID = r.u64()
	kind := r.u8()
	switch kind {
	case v3KindWatch:
		q.Watch = true
		q.WatchID = r.u64()
		q.WatchKey = r.u64()
		q.PrefixBits = r.u8()
		q.SinceCycle = r.u64()
		if r.err == nil && q.PrefixBits > 64 {
			err := fmt.Errorf("%w: watch prefix bits %d", ErrClientFrame, q.PrefixBits)
			*q = ClientRequestV2{}
			return err
		}
	case v3KindUnwatch:
		q.Unwatch = true
		q.WatchID = r.u64()
	case v3KindTxn:
		q.Txn = true
		q.Session = r.u64()
		q.Seq = r.u64()
		t := Txn{Guards: guards, Ops: tops}
		if err := parseTxnBody(r, &t, arena); err != nil {
			*q = ClientRequestV2{}
			return err
		}
		q.TxnGuards, q.TxnOps = t.Guards, t.Ops
		// A zero session submits without dedup; a non-zero one must be a
		// committed registration, same rule as the v2 session frames.
		if r.err == nil && q.Session != 0 && !IsSessionID(q.Session) {
			err := fmt.Errorf("%w: invalid session ID %#x", ErrClientFrame, q.Session)
			*q = ClientRequestV2{}
			return err
		}
	default:
		*q = ClientRequestV2{}
		return fmt.Errorf("%w: unknown v3 frame kind %d", ErrClientFrame, kind)
	}
	if r.err != nil || r.off != len(payload) {
		*q = ClientRequestV2{}
		return fmt.Errorf("%w: v3 request (%d bytes)", ErrClientFrame, len(payload))
	}
	q.Ops = ops
	return nil
}

// AppendClientResponseV3 appends resp as a length-prefixed v3 frame to
// b: the event-push shape when Event is set, the v2 encoding otherwise.
func AppendClientResponseV3(b []byte, resp *ClientResponseV2) []byte {
	if !resp.Event {
		return AppendClientResponseV2(b, resp)
	}
	n := v3RespEventFixed
	for i := range resp.Events {
		n += v3RespEventElem + len(resp.Events[i].Val)
	}
	b = putU32(b, uint32(n))
	b = putU64(b, resp.ID)
	b = putU8(b, v3KindEvent)
	var flags uint8
	if resp.Overflow {
		flags |= v3EventFlagOverflow
	}
	b = putU8(b, flags)
	b = putU64(b, resp.Cycle)
	b = putU32(b, uint32(len(resp.Events)))
	for i := range resp.Events {
		e := &resp.Events[i]
		b = putU8(b, uint8(e.Op))
		b = putU64(b, e.Key)
		b = putBytes(b, e.Val)
	}
	return b
}

// ParseClientResponseV3 decodes one v3 response payload. Every v2
// response kind is accepted unchanged.
func ParseClientResponseV3(payload []byte) (ClientResponseV2, error) {
	if len(payload) < 9 || payload[8] != v3KindEvent {
		return ParseClientResponseV2(payload)
	}
	r := &reader{b: payload}
	var resp ClientResponseV2
	resp.ID = r.u64()
	r.u8() // kind, already sniffed
	resp.Event = true
	flags := r.u8()
	resp.Cycle = r.u64()
	count := r.count(v3RespEventElem)
	if count > 0 && r.err == nil {
		resp.Events = make([]Event, 0, count)
	}
	for i := 0; i < count; i++ {
		var e Event
		e.Op = Op(r.u8())
		e.Key = r.u64()
		e.Val = r.bytes()
		if r.err == nil && e.Op != OpWrite && e.Op != OpDelete {
			return ClientResponseV2{}, fmt.Errorf("%w: event op %d", ErrClientFrame, uint8(e.Op))
		}
		resp.Events = append(resp.Events, e)
	}
	if r.err != nil || r.off != len(payload) {
		return ClientResponseV2{}, fmt.Errorf("%w: v3 response (%d bytes)", ErrClientFrame, len(payload))
	}
	if flags&^v3EventFlagOverflow != 0 {
		return ClientResponseV2{}, fmt.Errorf("%w: event flags %#x", ErrClientFrame, flags)
	}
	resp.Overflow = flags&v3EventFlagOverflow != 0
	return resp, nil
}
