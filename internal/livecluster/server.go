package livecluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"canopus/admin"
	"canopus/internal/core"
	"canopus/internal/events"
	"canopus/internal/kvstore"
	"canopus/internal/metrics"
	"canopus/internal/transport"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// maxGroup bounds how many pipelined requests one connection submits per
// machine turn; deeper pipelines are split across turns so one greedy
// client cannot monopolize the node's serialization lock.
const maxGroup = 512

// ClientPort serves canopus-server's client protocol for one node: the
// pipelined, length-prefixed protocol v3 of internal/wire. A connection
// that does not open with the v3 preamble is closed unanswered.
//
// Linearizable operations enter consensus, while Sequential and Stale
// reads are answered from the node's committed state
// (core.Node.ReadLocal) without starting or riding a consensus cycle.
// WATCH/UNWATCH frames register with the node's event hub
// (internal/events), which pushes EVENT frames; multi-op TXN frames
// ride consensus as one wire.OpTxn request. Watch registration and
// cancellation never enter a machine turn — the hub has its own lock —
// and event fan-out runs on the hub's Publish caller (the apply
// executor), writing only to per-connection output buffers.
//
// Replies are fanned out batch-aware and off the consensus turn: the
// port owns the node's OnReplyBatch callback — which, with the parallel
// commit pipeline (core.Config.ApplyWorkers), fires on the node's apply
// executor rather than inside the machine turn — and one committed cycle
// costs one pass over its completion records, encoded into
// per-connection output buffers (pooled) that per-connection writer
// goroutines flush. Neither the reply encode nor the socket write ever
// holds the node's machine lock.
type ClientPort struct {
	runner *transport.Runner
	// nodeP is the serving protocol node. It is an atomic pointer, not a
	// plain field, because SetNode swaps in a replacement joiner when a
	// node restarts in place (chaos eviction/readmission) while reader
	// goroutines and the apply executor are still looking at it.
	nodeP atomic.Pointer[core.Node]
	ln    net.Listener

	// hubP is the node's event hub; nil disables the v3 watch surface
	// (WATCH frames are rejected, TXN frames still work). Set before
	// AcceptClients; swapped together with the node by SetNode.
	hubP atomic.Pointer[events.Hub]

	draining    atomic.Bool
	outstanding atomic.Int64 // accepted-but-unanswered requests
	// deferredLocal counts the subset of outstanding that are Sequential
	// reads parked on a future commit cycle: they cannot complete on an
	// idle node, so a graceful Stop rejects rather than awaits them.
	deferredLocal atomic.Int64

	// dropReplies, when set, makes writers discard every encoded
	// response instead of flushing it — the deterministic reply-loss
	// fault tests use to force the commit-race retry window.
	dropReplies atomic.Bool

	// mu guards conns, every conn's pending map and seq counter,
	// sessPending, and batch aggregates. It is the port's own lock —
	// deliberately NOT the runner's machine lock — so the reply fan-out
	// (running on the node's apply executor in parallel mode) and the
	// submit paths (running inside machine turns) synchronize without
	// serializing against consensus.
	mu     sync.Mutex
	nextID uint64
	conns  map[uint64]*clientConn
	loc    *clientConn // lazy pseudo-connection for SubmitLocal

	// sessPending routes session-scoped submissions back to their
	// serving connection: replies arrive keyed by the replicated
	// (session, seq) identity, not the connection. Guarded by mu.
	sessPending map[sessKey]sessEntry

	// stats are the port's operational counters (see RegisterMetrics);
	// the in-flight gauge is the outstanding counter above.
	stats portStats

	accept  sync.Once
	writers sync.WaitGroup
}

// portStats counts client-facing work: accepted sockets, admitted
// requests, and replies lost to fault injection or departed connections.
type portStats struct {
	conns    atomic.Uint64 // sockets accepted
	requests atomic.Uint64 // requests admitted (tracked as outstanding)
	dropped  atomic.Uint64 // reply buffers discarded instead of delivered
}

// sessKey identifies one in-flight session-scoped operation.
type sessKey struct{ session, seq uint64 }

// sessEntry is the completion target of one session-scoped operation.
type sessEntry struct {
	cc *clientConn
	e  pendingEntry
}

// pendingEntry maps one submitted request back to its completion target:
// a connection frame (optionally one slot of a batch frame) or a local
// done callback.
type pendingEntry struct {
	id   uint64                    // correlation ID
	done func(val []byte, ok bool) // SubmitLocal completion; nil for sockets
	agg  *batchAgg                 // batch aggregation; nil for single ops
	idx  int                       // slot in agg.results
}

// batchAgg accumulates one batch frame's per-op results; the response
// is pushed when the last sub-op completes. Guarded by the port mutex,
// like the pending maps feeding it. Aggregates and their result slices
// are pooled — recycled the moment the response frame is encoded.
type batchAgg struct {
	id        uint64
	remaining int
	cycle     uint64
	results   []wire.ClientResult
}

// aggPool recycles batch aggregates across frames.
var aggPool = sync.Pool{New: func() any { return new(batchAgg) }}

func newBatchAgg(id uint64, n int) *batchAgg {
	agg := aggPool.Get().(*batchAgg)
	agg.id, agg.remaining, agg.cycle = id, n, 0
	if cap(agg.results) < n {
		agg.results = make([]wire.ClientResult, n)
	} else {
		agg.results = agg.results[:n]
		clear(agg.results)
	}
	return agg
}

func freeBatchAgg(agg *batchAgg) {
	clear(agg.results)
	aggPool.Put(agg)
}

type clientConn struct {
	id   uint64
	conn net.Conn // nil for the SubmitLocal pseudo-connection

	// pending maps request Seq -> entry; seq is the per-connection
	// submission counter. Both are guarded by the port mutex.
	pending map[uint64]pendingEntry
	seq     uint64

	// watches maps the client-chosen watch ID to the hub's registration
	// ID (v3 connections only; nil until the first WATCH). Guarded by
	// the port mutex. Entries can go stale when the hub overflows a
	// watch — its sink may not take the port mutex — which is harmless:
	// hub.Cancel is idempotent.
	watches map[uint64]uint64

	outMu   sync.Mutex
	out     []byte // encoded responses awaiting flush
	wake    chan struct{}
	closing bool
}

// NewClientPort binds the client protocol for node on addr (e.g.
// "127.0.0.1:0") and installs itself as the node's reply callback. The
// port does NOT accept connections yet: call AcceptClients once the node
// is ready to serve — in particular, after crash recovery has replayed
// the WAL. Binding early and accepting late means a restarting server
// owns its advertised address immediately without ever exposing
// mid-recovery state to a client.
func NewClientPort(runner *transport.Runner, node *core.Node, addr string) (*ClientPort, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livecluster: client listen %s: %w", addr, err)
	}
	p := &ClientPort{
		runner:      runner,
		ln:          ln,
		conns:       make(map[uint64]*clientConn),
		sessPending: make(map[sessKey]sessEntry),
	}
	p.nodeP.Store(node)
	// The SubmitLocal pseudo-connection is created eagerly so Stop and
	// Abort always see it — a lazily created one could slip past their
	// shutdown snapshot and strand its done callbacks.
	p.nextID++
	p.loc = &clientConn{
		id:      (uint64(int64(node.ID())+1) << 32) | p.nextID,
		pending: make(map[uint64]pendingEntry),
		wake:    make(chan struct{}, 1),
	}
	p.conns[p.loc.id] = p.loc
	node.SetOnReplyBatch(p.onReplyBatch)
	node.SetOnSessionReject(p.onSessionReject)
	return p, nil
}

// AcceptClients starts accepting client connections. Idempotent; see
// NewClientPort for why accepting is separate from binding.
func (p *ClientPort) AcceptClients() {
	p.accept.Do(func() { go p.acceptLoop() })
}

// SetHub installs the node's event hub, enabling the v3 watch surface.
// Set it before AcceptClients; without one, WATCH frames are rejected.
func (p *ClientPort) SetHub(h *events.Hub) { p.hubP.Store(h) }

// Hub returns the installed event hub (nil when watches are disabled).
func (p *ClientPort) Hub() *events.Hub { return p.hubP.Load() }

// node returns the currently-serving protocol node.
func (p *ClientPort) node() *core.Node { return p.nodeP.Load() }

// hub returns the currently-installed event hub (nil disables watches).
func (p *ClientPort) hub() *events.Hub { return p.hubP.Load() }

// SetNode rewires the port to a replacement protocol node and event hub
// — the in-place restart path (Cluster.RestartNode): an evicted node
// comes back as a protocol-level joiner on the same runner, ports and
// addresses. The new node's replies route back through this port;
// operations in flight against the old node complete through its
// draining executor or are failed by the caller. Existing watches die
// with the old hub (their cycles predate the joiner's state); clients
// re-register and resume.
func (p *ClientPort) SetNode(node *core.Node, hub *events.Hub) {
	node.SetOnReplyBatch(p.onReplyBatch)
	node.SetOnSessionReject(p.onSessionReject)
	p.nodeP.Store(node)
	p.hubP.Store(hub)
}

// Addr returns the bound client address.
func (p *ClientPort) Addr() string { return p.ln.Addr().String() }

// DropReplies makes the port silently discard every response instead of
// writing it to the socket: ops still enter consensus, commit and apply,
// but their clients never hear back. Crash-failover tests use it to
// inject the reply-loss race deterministically — the committed-but-
// unacknowledged window that forces a client retry of a committed op.
func (p *ClientPort) DropReplies() { p.dropReplies.Store(true) }

// SetDropReplies switches reply-loss fault injection on or off at
// runtime — the admin gateway's /chaos verb uses the off switch to end a
// game-day that DropReplies started.
func (p *ClientPort) SetDropReplies(on bool) { p.dropReplies.Store(on) }

// Outstanding returns the number of accepted, not-yet-answered requests.
func (p *ClientPort) Outstanding() int64 { return p.outstanding.Load() }

// admitRequest counts one accepted request into the outstanding gauge
// and the running total. Every submit path admits through here; the
// completion paths undo only the gauge.
func (p *ClientPort) admitRequest() {
	p.outstanding.Add(1)
	p.stats.requests.Add(1)
}

// RegisterMetrics exports the client port's instruments into reg under
// the canopus_client_* names with the given constant labels. Safe on a
// nil registry.
func (p *ClientPort) RegisterMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	reg.GaugeFunc("canopus_client_connections",
		"Open client connections.",
		func() float64 {
			p.mu.Lock()
			n := len(p.conns) - 1 // exclude the SubmitLocal pseudo-connection
			p.mu.Unlock()
			return float64(n)
		}, labels...)
	reg.CounterFunc("canopus_client_connections_total",
		"Client connections accepted.",
		p.stats.conns.Load, labels...)
	reg.GaugeFunc("canopus_client_inflight_requests",
		"Accepted, not-yet-answered client requests.",
		func() float64 { return float64(p.outstanding.Load()) }, labels...)
	reg.CounterFunc("canopus_client_requests_total",
		"Client requests admitted.",
		p.stats.requests.Load, labels...)
	reg.CounterFunc("canopus_client_replies_dropped_total",
		"Reply buffers discarded (fault injection or departed connection).",
		p.stats.dropped.Load, labels...)
}

func (p *ClientPort) newConn(conn net.Conn) *clientConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	cc := &clientConn{
		id:      (uint64(int64(p.node().ID())+1) << 32) | p.nextID,
		conn:    conn,
		pending: make(map[uint64]pendingEntry),
		wake:    make(chan struct{}, 1),
	}
	p.conns[cc.id] = cc
	p.stats.conns.Add(1)
	return cc
}

// local returns the pseudo-connection carrying SubmitLocal traffic
// (created at port construction). It has no socket and no writer: every
// pending entry completes through its done callback.
func (p *ClientPort) local() *clientConn { return p.loc }

func (p *ClientPort) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := p.newConn(conn)
		p.writers.Add(1)
		go p.writeLoop(cc)
		go p.handle(cc)
	}
}

// handle drives one connection's read side until EOF or protocol error.
// A connection that does not open with the v3 preamble is closed
// unanswered.
func (p *ClientPort) handle(cc *clientConn) {
	defer p.teardown(cc)
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != wire.ClientMagicV3 {
		return
	}
	p.handleV3(cc, br)
}

// teardown retires the connection. The read side is already done (EOF
// or protocol error), but submitted requests may still be in consensus:
// wait briefly so their replies reach the output buffer and are flushed
// before the writer closes the socket (a client that half-closes after
// its last request still gets every reply).
func (p *ClientPort) teardown(cc *clientConn) {
	// Watches die with the read side: no one is left to UNWATCH, and the
	// writer is about to close, so stop the event flow now rather than
	// letting every future cycle render frames nobody will read.
	p.dropWatches(cc)
	p.waitIdle(cc, 5*time.Second)
	p.mu.Lock()
	delete(p.conns, cc.id)
	if n := len(cc.pending); n > 0 {
		p.outstanding.Add(int64(-n))
	}
	cc.pending = nil
	p.dropSessPendingLocked(cc)
	p.mu.Unlock()
	cc.outMu.Lock()
	cc.closing = true
	cc.outMu.Unlock()
	select {
	case cc.wake <- struct{}{}:
	default:
	}
}

// writeLoop flushes one connection's response buffer: each wakeup writes
// everything accumulated since the last flush with a single syscall.
func (p *ClientPort) writeLoop(cc *clientConn) {
	defer p.writers.Done()
	for range cc.wake {
		for {
			cc.outMu.Lock()
			buf := cc.out
			cc.out = nil
			closing := cc.closing
			cc.outMu.Unlock()
			if len(buf) == 0 {
				if closing {
					cc.conn.Close()
					return
				}
				break
			}
			if p.dropReplies.Load() {
				// Fault injection: the response was produced (the op
				// committed and left the pending set) but never reaches
				// the client — the reply-loss crash window, made
				// deterministic for tests.
				p.stats.dropped.Add(1)
				wire.EncodePool.Put(buf)
				continue
			}
			cc.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_, err := cc.conn.Write(buf)
			wire.EncodePool.Put(buf)
			if err != nil {
				cc.conn.Close()
				return
			}
		}
	}
}

// push appends encoded response bytes to the connection's output buffer
// and rings its writer.
func (cc *clientConn) push(render func(b []byte) []byte) {
	cc.outMu.Lock()
	if cc.closing {
		cc.outMu.Unlock()
		return
	}
	if cc.out == nil {
		cc.out = wire.EncodePool.Get(256)
	}
	cc.out = render(cc.out)
	cc.outMu.Unlock()
	select {
	case cc.wake <- struct{}{}:
	default:
	}
}

// watchOutBudget bounds the unflushed response bytes a connection may
// accumulate before its watches count as overflowed: a client that
// stops reading loses its watches, not the server its memory.
const watchOutBudget = 1 << 20

// pushBudget appends like push but refuses — without appending — when
// the unflushed buffer already exceeds budget, reporting false.
// Terminal frames are exempt: an overflow notice must reach the client
// even though the buffer is exactly what overflowed. A closing
// connection also reports false.
func (cc *clientConn) pushBudget(render func(b []byte) []byte, budget int, terminal bool) bool {
	cc.outMu.Lock()
	if cc.closing {
		cc.outMu.Unlock()
		return false
	}
	if !terminal && len(cc.out) > budget {
		cc.outMu.Unlock()
		return false
	}
	if cc.out == nil {
		cc.out = wire.EncodePool.Get(256)
	}
	cc.out = render(cc.out)
	cc.outMu.Unlock()
	select {
	case cc.wake <- struct{}{}:
	default:
	}
	return true
}

// completeEntry delivers one completed consensus operation to its
// destination: local callback, batch slot, or an encoded single-op
// response. Runs with the port mutex held — on the node's apply executor
// in parallel mode, inside the machine turn in serial mode. The value is
// encoded (or handed to the done callback) before returning: it may
// alias store state that the next cycle's apply overwrites.
func (p *ClientPort) completeEntry(cc *clientConn, entry pendingEntry, op wire.Op, val []byte) {
	cycle := p.node().Committed()
	switch {
	case entry.done != nil:
		entry.done(val, true)
	case entry.agg != nil:
		status := wire.ClientStatusOK
		if op == wire.OpRead && val == nil {
			status = wire.ClientStatusNil
		}
		p.completeBatchOp(cc, entry.agg, entry.idx, status, wire.CodeNone, val, cycle)
		return // completeBatchOp owns the outstanding decrement
	default:
		resp := wire.ClientResponseV2{ID: entry.id, Status: wire.ClientStatusOK, Cycle: cycle, Val: val}
		if op == wire.OpRead && val == nil {
			resp.Status = wire.ClientStatusNil
		}
		if op == wire.OpTxn && val == nil {
			// Duplicate txn whose recorded result was displaced by a later
			// txn on the same session: the outcome is unknowable here, so
			// say that instead of guessing — the client must re-read state.
			resp.Status, resp.Val = wire.ClientStatusErr, []byte("txn result displaced")
		}
		cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
	}
	p.outstanding.Add(-1)
}

// completeBatchOp fills one slot of a batch frame and pushes the aggregate
// response when the batch is complete. Runs with the port mutex held.
func (p *ClientPort) completeBatchOp(cc *clientConn, agg *batchAgg, idx int, status, code uint8, val []byte, cycle uint64) {
	if status == wire.ClientStatusOK && val != nil {
		// A batch slot may outlive this completion callback (the frame
		// encodes when its LAST slot fills, possibly cycles later), and
		// reply values are only valid during the callback — copy.
		v := make([]byte, len(val))
		copy(v, val)
		val = v
	}
	agg.results[idx] = wire.ClientResult{Status: status, Code: code, Val: val}
	if cycle > agg.cycle {
		agg.cycle = cycle
	}
	agg.remaining--
	p.outstanding.Add(-1)
	if agg.remaining == 0 {
		// Encode now, inside this call: result values may alias store
		// state (or stack-scoped error strings) that are only stable for
		// the duration of the completion callback.
		resp := wire.ClientResponseV2{ID: agg.id, Batch: true, Cycle: agg.cycle, Results: agg.results}
		cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
		freeBatchAgg(agg)
	}
}

// onReplyBatch is the node's completion callback: it fans one committed
// cycle's completion records out to the owning connections' buffers (no
// socket writes on this path). With the parallel commit pipeline it runs
// on the node's apply executor — the machine lock is NOT held, which is
// the point: reply materialization no longer steals consensus time.
func (p *ClientPort) onReplyBatch(reqs []wire.Request, vals [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range reqs {
		req := &reqs[i]
		if wire.IsSessionID(req.Client) {
			// Session-scoped op: route by the replicated (session, seq)
			// identity. A duplicate commit of a (session, seq) the client
			// already got answered simply finds no entry here.
			k := sessKey{req.Client, req.Seq}
			se, ok := p.sessPending[k]
			if !ok {
				continue
			}
			delete(p.sessPending, k)
			p.completeEntry(se.cc, se.e, req.Op, vals[i])
			continue
		}
		cc, ok := p.conns[req.Client]
		if !ok {
			p.stats.dropped.Add(1)
			continue // connection gone; reply dropped
		}
		entry, ok := cc.pending[req.Seq]
		if !ok {
			continue
		}
		// Buffer the reply BEFORE retiring the pending entry: Stop and
		// teardown poll Outstanding()/pending to decide when it is safe
		// to set closing, so the response must already be in the output
		// buffer (the writer flushes it before closing) by the time this
		// request stops counting as outstanding.
		p.completeEntry(cc, entry, req.Op, vals[i])
		delete(cc.pending, req.Seq)
	}
}

// onSessionReject is the node's expired-session callback: the op was
// deterministically NOT applied; surface CodeSessionExpired instead of a
// completion. Runs inside the machine turn (order resolution is always
// serial).
func (p *ClientPort) onSessionReject(req *wire.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := sessKey{req.Client, req.Seq}
	se, ok := p.sessPending[k]
	if !ok {
		return
	}
	delete(p.sessPending, k)
	switch {
	case se.e.done != nil:
		se.e.done(nil, false)
		p.outstanding.Add(-1)
	case se.e.agg != nil:
		p.completeBatchOp(se.cc, se.e.agg, se.e.idx, wire.ClientStatusErr, wire.CodeSessionExpired,
			[]byte("session expired"), p.node().Committed())
	default:
		resp := wire.ClientResponseV2{ID: se.e.id, Status: wire.ClientStatusErr,
			Code: wire.CodeSessionExpired, Cycle: p.node().Committed(), Val: []byte("session expired")}
		se.cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
		p.outstanding.Add(-1)
	}
}

// putSessPendingLocked registers one session-scoped submission, retiring
// any stale entry for the same (session, seq) — a retry looping back to
// this node before its first submission's bookkeeping was torn down.
// Runs with the port mutex held; owns the outstanding increment.
func (p *ClientPort) putSessPendingLocked(k sessKey, se sessEntry) {
	if old, ok := p.sessPending[k]; ok {
		p.outstanding.Add(-1)
		if old.e.done != nil {
			old.e.done(nil, false)
		}
	}
	p.sessPending[k] = se
	p.admitRequest()
}

// dropSessPendingLocked retires every session-scoped entry bound to one
// (dead) connection. Runs with the port mutex held.
func (p *ClientPort) dropSessPendingLocked(cc *clientConn) {
	for k, se := range p.sessPending {
		if se.cc == cc {
			delete(p.sessPending, k)
			p.outstanding.Add(-1)
			if se.e.done != nil {
				se.e.done(nil, false)
			}
		}
	}
}

// reject answers a request without consulting the node.
func (p *ClientPort) reject(cc *clientConn, id uint64, code uint8, reason string) {
	resp := wire.ClientResponseV2{ID: id, Status: wire.ClientStatusErr, Code: code, Val: []byte(reason)}
	cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
}

// rejectBatch answers an entire batch frame with a frame-level code.
func (p *ClientPort) rejectBatch(cc *clientConn, id uint64, code uint8) {
	resp := wire.ClientResponseV2{ID: id, Batch: true, Code: code}
	cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
}

// track registers one submission in the connection's pending map and
// returns its per-connection sequence number. It reports ok=false when
// the connection has been torn down concurrently.
func (p *ClientPort) track(cc *clientConn, entry pendingEntry) (uint64, bool) {
	p.mu.Lock()
	if cc.pending == nil {
		p.mu.Unlock()
		return 0, false
	}
	cc.seq++
	seq := cc.seq
	cc.pending[seq] = entry
	p.mu.Unlock()
	p.admitRequest()
	return seq, true
}

// submitV2 hands a group of parsed frames of kinds 1–6 and 9 to the
// node in one machine turn. Linearizable operations (and all mutations)
// enter consensus; Sequential/Stale reads take the committed-state local
// path and never start a cycle.
func (p *ClientPort) submitV2(cc *clientConn, group []wire.ClientRequestV2) {
	if p.draining.Load() {
		for i := range group {
			if group[i].Batch {
				p.rejectBatch(cc, group[i].ID, wire.CodeDraining)
			} else {
				p.reject(cc, group[i].ID, wire.CodeDraining, "draining")
			}
		}
		return
	}
	p.runner.Invoke(func() {
		for i := range group {
			q := &group[i]
			switch {
			case q.Register:
				p.registerSession(cc, q.ID)
				continue
			case q.Expire:
				p.expireSession(cc, q.ID, q.Session)
				continue
			case q.Txn:
				p.submitTxn(cc, q)
				continue
			}
			if q.Batch {
				if len(q.Ops) > wire.MaxBatchOps {
					// One batch is one machine turn; an oversized one
					// would monopolize the node exactly as maxGroup
					// exists to prevent for pipelined singles.
					p.rejectBatch(cc, q.ID, wire.CodeBadRequest)
					continue
				}
				p.submitV2Batch(cc, q)
				continue
			}
			op := &q.Ops[0]
			if op.Op == wire.OpRead && q.Consistency != wire.Linearizable {
				if !p.minCycleSane(q.MinCycle) {
					p.reject(cc, q.ID, wire.CodeBadRequest, "minCycle too far ahead")
					continue
				}
				p.localRead(cc, q.ID, op.Key, q.MinCycle)
				continue
			}
			if p.node().Stalled() {
				p.reject(cc, q.ID, wire.CodeStalled, "node stalled")
				continue
			}
			if q.Session != 0 && op.Op.Mutates() {
				// Session-scoped mutation: the replicated (session, seq)
				// identity travels into consensus, so the apply-path
				// dedup table recognizes a retried committed op.
				p.mu.Lock()
				p.putSessPendingLocked(sessKey{q.Session, q.Seq}, sessEntry{cc: cc, e: pendingEntry{id: q.ID}})
				p.mu.Unlock()
				p.node().Submit(wire.Request{
					Client: q.Session, Seq: q.Seq, Op: op.Op, Key: op.Key, Val: op.Val,
				})
				continue
			}
			seq, ok := p.track(cc, pendingEntry{id: q.ID})
			if !ok {
				return // torn down concurrently
			}
			p.node().Submit(wire.Request{
				Client: cc.id, Seq: seq, Op: op.Op, Key: op.Key, Val: op.Val,
			})
		}
	})
}

// registerSession proposes a fresh replicated session and answers with
// its 8-byte ID once the registration commits. Runs inside the machine
// turn.
func (p *ClientPort) registerSession(cc *clientConn, id uint64) {
	p.admitRequest()
	p.node().RegisterSession(func(session uint64, ok bool) {
		if !ok {
			// Could not commit here (stall / shutdown): retryable
			// elsewhere, exactly like a draining rejection.
			p.reject(cc, id, wire.CodeDraining, "cannot register session")
			p.outstanding.Add(-1)
			return
		}
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, session)
		resp := wire.ClientResponseV2{ID: id, Status: wire.ClientStatusOK,
			Cycle: p.node().Committed(), Val: val}
		cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
		p.outstanding.Add(-1)
	})
}

// expireSession proposes reclaiming a session and acknowledges once the
// expiry commits. Runs inside the machine turn.
func (p *ClientPort) expireSession(cc *clientConn, id, session uint64) {
	p.admitRequest()
	p.node().ExpireSession(session, func(ok bool) {
		if !ok {
			p.reject(cc, id, wire.CodeDraining, "cannot expire session")
			p.outstanding.Add(-1)
			return
		}
		resp := wire.ClientResponseV2{ID: id, Status: wire.ClientStatusOK, Cycle: p.node().Committed()}
		cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
		p.outstanding.Add(-1)
	})
}

// maxMinCycleAhead bounds how far beyond the replica's committed cycle
// a Sequential read may wait. Legitimate read timestamps come from
// observed commits, so they can only lead a healthy replica by the
// pipelining depth plus transient lag; anything further is a bug or an
// attempt to park unbounded state server-side.
const maxMinCycleAhead = 1 << 16

// minCycleSane validates a deferred read's target cycle against the
// bound.
func (p *ClientPort) minCycleSane(minCycle uint64) bool {
	return minCycle <= p.node().Committed()+maxMinCycleAhead
}

// trackedReadLocal runs one committed-state read with the outstanding /
// deferred-read accounting shared by the single-op and batch paths.
// complete runs with the port mutex NOT held — on the apply executor in
// parallel mode, under the machine turn in serial mode — with the op's
// status, value and serving cycle (status Err means the read was
// abandoned: node shutting down, crashed, or stalled below the awaited
// cycle) and is responsible for the matching outstanding decrement.
func (p *ClientPort) trackedReadLocal(key, minCycle uint64, complete func(status uint8, val []byte, cycle uint64)) {
	p.admitRequest()
	// Whether this read will park is the executor's decision in parallel
	// mode; the committed watermark is the best (conservative) estimate,
	// and the completion settles the account using the same flag.
	deferred := minCycle > p.node().Committed()
	if deferred {
		p.deferredLocal.Add(1)
	}
	p.node().ReadLocal(key, minCycle, func(val []byte, cycle uint64, ok bool) {
		status := wire.ClientStatusOK
		switch {
		case !ok:
			status, val = wire.ClientStatusErr, []byte("unavailable")
		case val == nil:
			status = wire.ClientStatusNil
		}
		complete(status, val, cycle)
		if deferred {
			p.deferredLocal.Add(-1)
		}
	})
}

// localRead serves one non-linearizable single-op read from committed
// state.
func (p *ClientPort) localRead(cc *clientConn, id uint64, key, minCycle uint64) {
	p.trackedReadLocal(key, minCycle, func(status uint8, val []byte, cycle uint64) {
		resp := wire.ClientResponseV2{ID: id, Status: status, Cycle: cycle, Val: val}
		if status == wire.ClientStatusErr {
			// Abandoned: tell the client to go elsewhere (retryable).
			resp.Code = wire.CodeDraining
		}
		cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
		p.outstanding.Add(-1)
	})
}

// submitV2Batch registers one multi-op frame: consensus sub-ops and
// local reads complete independently into the shared aggregate, and the
// response goes out when the last slot fills. In a session batch the
// frame's mutating ops carry session seqs q.Seq, q.Seq+1, ... in frame
// order (reads consume none), mirroring the client's assignment. Runs
// inside the machine turn.
func (p *ClientPort) submitV2Batch(cc *clientConn, q *wire.ClientRequestV2) {
	agg := newBatchAgg(q.ID, len(q.Ops))
	stalled := p.node().Stalled()
	sessSeq := q.Seq
	for i := range q.Ops {
		op := &q.Ops[i]
		if op.Op == wire.OpRead && q.Consistency != wire.Linearizable {
			if !p.minCycleSane(q.MinCycle) {
				p.admitRequest() // completeBatchOp undoes it
				p.mu.Lock()
				p.completeBatchOp(cc, agg, i, wire.ClientStatusErr, wire.CodeBadRequest, []byte("minCycle too far ahead"), 0)
				p.mu.Unlock()
				continue
			}
			idx := i
			p.trackedReadLocal(op.Key, q.MinCycle, func(status uint8, val []byte, cycle uint64) {
				code := wire.CodeNone
				if status == wire.ClientStatusErr {
					code = wire.CodeDraining
				}
				p.mu.Lock()
				p.completeBatchOp(cc, agg, idx, status, code, val, cycle)
				p.mu.Unlock()
			})
			continue
		}
		if stalled {
			p.admitRequest() // completeBatchOp undoes it; keeps one accounting path
			p.mu.Lock()
			p.completeBatchOp(cc, agg, i, wire.ClientStatusErr, wire.CodeStalled, []byte("node stalled"), 0)
			p.mu.Unlock()
			continue
		}
		if q.Session != 0 && op.Op.Mutates() {
			seq := sessSeq
			sessSeq++
			p.mu.Lock()
			p.putSessPendingLocked(sessKey{q.Session, seq}, sessEntry{cc: cc, e: pendingEntry{id: q.ID, agg: agg, idx: i}})
			p.mu.Unlock()
			p.node().Submit(wire.Request{
				Client: q.Session, Seq: seq, Op: op.Op, Key: op.Key, Val: op.Val,
			})
			continue
		}
		seq, ok := p.track(cc, pendingEntry{id: q.ID, agg: agg, idx: i})
		if !ok {
			return // torn down concurrently; teardown retired the accounting
		}
		p.node().Submit(wire.Request{
			Client: cc.id, Seq: seq, Op: op.Op, Key: op.Key, Val: op.Val,
		})
	}
}

// submitTxn hands one parsed v3 transaction frame to the node: the body
// re-encodes into a fresh buffer (the parsed guards/ops alias the read
// loop's arena, which dies with the group) and rides consensus as a
// single wire.OpTxn request. With a session the replicated (session,
// seq) identity makes the txn exactly-once across failover, like any
// session mutation; without one it submits at-most-once under the
// connection identity. Runs inside the machine turn.
func (p *ClientPort) submitTxn(cc *clientConn, q *wire.ClientRequestV2) {
	if p.node().Stalled() {
		p.reject(cc, q.ID, wire.CodeStalled, "node stalled")
		return
	}
	body := wire.AppendTxn(nil, &wire.Txn{Guards: q.TxnGuards, Ops: q.TxnOps})
	if q.Session != 0 {
		p.mu.Lock()
		p.putSessPendingLocked(sessKey{q.Session, q.Seq}, sessEntry{cc: cc, e: pendingEntry{id: q.ID}})
		p.mu.Unlock()
		p.node().Submit(wire.Request{Client: q.Session, Seq: q.Seq, Op: wire.OpTxn, Val: body})
		return
	}
	seq, ok := p.track(cc, pendingEntry{id: q.ID})
	if !ok {
		return // torn down concurrently
	}
	p.node().Submit(wire.Request{Client: cc.id, Seq: seq, Op: wire.OpTxn, Val: body})
}

// handleWatch registers one watch on the node's event hub. It runs on
// the connection's read goroutine, never inside a machine turn: the hub
// has its own lock, so registration — including the history replay for
// a resuming watch — costs consensus nothing. Replayed EVENT frames are
// buffered before the OK ack is, so on the wire the client sees replay,
// then ack, then live pushes, with no seam.
//
// A WATCH reusing a live client watch ID replaces that registration —
// the reconnect-and-resume path — and the ack's Cycle is the hub's
// watermark at registration: the feed is complete from that cycle
// (exclusive) on, which is exactly the resume point a client should
// carry into a failover.
func (p *ClientPort) handleWatch(cc *clientConn, q *wire.ClientRequestV2) {
	if p.hub() == nil {
		p.reject(cc, q.ID, wire.CodeBadRequest, "watches not enabled")
		return
	}
	if p.draining.Load() {
		p.reject(cc, q.ID, wire.CodeDraining, "draining")
		return
	}
	p.mu.Lock()
	if cc.pending == nil {
		p.mu.Unlock()
		return // torn down concurrently
	}
	if cc.watches == nil {
		cc.watches = make(map[uint64]uint64)
	}
	old, replaced := cc.watches[q.WatchID]
	delete(cc.watches, q.WatchID)
	p.mu.Unlock()
	if replaced {
		p.hub().Cancel(old)
	}
	spec := events.Spec{Key: q.WatchKey, PrefixBits: q.PrefixBits, SinceCycle: q.SinceCycle}
	hubID, err := p.hub().Watch(spec, p.watchSink(cc, q.WatchID))
	if err != nil {
		// Resume point already evicted (or the replay itself overflowed):
		// the feed cannot be gap-free. The client must re-read state.
		p.reject(cc, q.ID, wire.CodeWatchOverflow, "watch resume point evicted")
		return
	}
	p.mu.Lock()
	if cc.pending == nil {
		p.mu.Unlock()
		p.hub().Cancel(hubID)
		return
	}
	cc.watches[q.WatchID] = hubID
	p.mu.Unlock()
	resp := wire.ClientResponseV2{ID: q.ID, Status: wire.ClientStatusOK, Cycle: p.hub().LastCycle()}
	cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
}

// handleUnwatch cancels one watch. Idempotent — cancelling an unknown
// or already-overflowed watch still acks, so client and server never
// deadlock over who forgot whom. Runs on the read goroutine.
func (p *ClientPort) handleUnwatch(cc *clientConn, q *wire.ClientRequestV2) {
	p.mu.Lock()
	hubID, ok := cc.watches[q.WatchID]
	delete(cc.watches, q.WatchID)
	p.mu.Unlock()
	if ok && p.hub() != nil {
		p.hub().Cancel(hubID)
	}
	resp := wire.ClientResponseV2{ID: q.ID, Status: wire.ClientStatusOK}
	cc.push(func(b []byte) []byte { return wire.AppendClientResponseV2(b, &resp) })
}

// watchSink builds the hub sink feeding one connection's watch: each
// notification encodes as a server-push EVENT frame (ID = the client's
// watch ID) into the connection's output buffer. It runs under the hub
// mutex on the apply executor, so it must not block and must NOT take
// the port mutex (the submit paths hold it while calling into the hub).
// The buffer budget turns a non-reading client into a watch overflow;
// the terminal overflow notice itself bypasses the budget.
func (p *ClientPort) watchSink(cc *clientConn, watchID uint64) events.Sink {
	return func(n events.Notification) bool {
		resp := wire.ClientResponseV2{ID: watchID, Event: true, Cycle: n.Cycle,
			Overflow: n.Overflow, Events: n.Events}
		return cc.pushBudget(func(b []byte) []byte {
			return wire.AppendClientResponseV3(b, &resp)
		}, watchOutBudget, n.Overflow)
	}
}

// dropWatches cancels every hub registration of one connection:
// collect under the port mutex, cancel outside it (port mutex → hub
// mutex is the allowed order, but shorter critical sections win).
func (p *ClientPort) dropWatches(cc *clientConn) {
	if p.hub() == nil {
		return
	}
	p.mu.Lock()
	ids := make([]uint64, 0, len(cc.watches))
	for _, hubID := range cc.watches {
		ids = append(ids, hubID)
	}
	cc.watches = nil
	p.mu.Unlock()
	for _, id := range ids {
		p.hub().Cancel(id)
	}
}

// SubmitLocal injects one operation directly into the node — no socket,
// no frame encoding — while sharing the port's reply fan-out, drain
// rejection and outstanding accounting with socket clients. done is
// invoked from the node's execution context (machine turn in serial
// mode, apply executor in parallel mode — it must not block either way)
// with the read value and whether the operation was served; ok=false
// means the port is draining or the node has stalled. This is the
// backend path of the public canopus.Cluster interface.
func (p *ClientPort) SubmitLocal(op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	if p.draining.Load() {
		done(nil, false)
		return
	}
	cc := p.local()
	p.runner.Invoke(func() {
		if p.node().Stalled() {
			done(nil, false)
			return
		}
		seq, ok := p.track(cc, pendingEntry{done: done})
		if !ok {
			done(nil, false)
			return
		}
		p.node().Submit(wire.Request{Client: cc.id, Seq: seq, Op: op, Key: key, Val: val})
	})
}

// RegisterLocal proposes a fresh replicated session without a socket —
// the Cluster-interface twin of the register frame. done runs from
// the node's machine turn (it must not block) with the committed session
// ID; ok=false means the port is draining or the node cannot commit.
func (p *ClientPort) RegisterLocal(done func(id uint64, ok bool)) {
	if p.draining.Load() {
		done(0, false)
		return
	}
	p.runner.Invoke(func() {
		p.admitRequest()
		p.node().RegisterSession(func(id uint64, ok bool) {
			done(id, ok)
			p.outstanding.Add(-1)
		})
	})
}

// SubmitSessionLocal injects one session-scoped operation directly into
// the node, sharing the session reply routing with socket clients: a
// mutation whose (session, seq) already committed completes with the
// cached reply instead of applying twice. done runs from the node's
// execution context (see SubmitLocal); ok=false means draining, stalled,
// crashed — or the session expired.
func (p *ClientPort) SubmitSessionLocal(session, seq uint64, op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	if p.draining.Load() {
		done(nil, false)
		return
	}
	cc := p.local()
	p.runner.Invoke(func() {
		if p.node().Stalled() {
			done(nil, false)
			return
		}
		if !op.Mutates() {
			// Reads are idempotent: no dedup identity needed.
			seq, ok := p.track(cc, pendingEntry{done: done})
			if !ok {
				done(nil, false)
				return
			}
			p.node().Submit(wire.Request{Client: cc.id, Seq: seq, Op: op, Key: key, Val: val})
			return
		}
		p.mu.Lock()
		if cc.pending == nil {
			p.mu.Unlock()
			done(nil, false)
			return
		}
		p.putSessPendingLocked(sessKey{session, seq}, sessEntry{cc: cc, e: pendingEntry{done: done}})
		p.mu.Unlock()
		p.node().Submit(wire.Request{Client: session, Seq: seq, Op: op, Key: key, Val: val})
	})
}

// handleV3 runs the pipelined client protocol: every complete frame
// already buffered joins one group, submitted in a single machine turn,
// with one value arena per group.
func (p *ClientPort) handleV3(cc *clientConn, br *bufio.Reader) {
	var hdr [4]byte
	var payload []byte // reused; parsed payloads copy into the group arena
	group := make([]wire.ClientRequestV2, 0, maxGroup)
	for {
		group = group[:0]
		// One value arena per accepted group: every parsed payload is
		// copied into it once, and the arena travels into consensus with
		// the requests (it is NOT reused across groups).
		var arena []byte
		// Block for the first request of the group.
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		if err := readV3Request(br, hdr, &payload, &arena, appendV2Slot(&group)); err != nil {
			return
		}
		// Drain whatever full frames the kernel already delivered.
		for len(group) < maxGroup && br.Buffered() >= 4 {
			peek, _ := br.Peek(4)
			n, err := wire.ClientFrameLen([4]byte(peek))
			if err != nil {
				return
			}
			if br.Buffered() < 4+n {
				break
			}
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			if err := readV3Request(br, hdr, &payload, &arena, appendV2Slot(&group)); err != nil {
				return
			}
		}
		p.submitV3(cc, group)
	}
}

// submitV3 dispatches one v3 group in frame order: WATCH and UNWATCH
// are handled right here on the read goroutine (the hub has its own
// lock; no machine turn involved), and the contiguous runs between them
// — v2 shapes plus TXN frames — go through submitV2's single-turn
// batching unchanged.
func (p *ClientPort) submitV3(cc *clientConn, group []wire.ClientRequestV2) {
	start := 0
	flush := func(end int) {
		if end > start {
			p.submitV2(cc, group[start:end])
		}
	}
	for i := range group {
		q := &group[i]
		if !q.Watch && !q.Unwatch {
			continue
		}
		flush(i)
		start = i + 1
		if q.Watch {
			p.handleWatch(cc, q)
		} else {
			p.handleUnwatch(cc, q)
		}
	}
	flush(len(group))
}

// appendV2Slot extends the group by one reusable slot and returns it.
// The slot keeps its Ops backing array across groups, so steady-state
// parsing allocates nothing per request.
func appendV2Slot(group *[]wire.ClientRequestV2) *wire.ClientRequestV2 {
	g := *group
	if len(g) < cap(g) {
		g = g[:len(g)+1]
	} else {
		g = append(g, wire.ClientRequestV2{})
	}
	*group = g
	return &g[len(g)-1]
}

func readV3Request(br *bufio.Reader, hdr [4]byte, scratch, arena *[]byte, q *wire.ClientRequestV2) error {
	payload, err := readFrame(br, hdr, scratch)
	if err != nil {
		return err
	}
	return wire.ParseClientRequestV3Into(payload, q, arena)
}

func readFrame(br *bufio.Reader, hdr [4]byte, scratch *[]byte) ([]byte, error) {
	n, err := wire.ClientFrameLen(hdr)
	if err != nil {
		return nil, err
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// waitIdle blocks until the connection has no pending requests (its
// replies are buffered for the writer) or timeout elapses.
func (p *ClientPort) waitIdle(cc *clientConn, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		n := len(cc.pending)
		p.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Stop shuts the port down gracefully: stop accepting, reject new
// requests, wait up to drain for in-flight requests to be answered, then
// flush and close every connection. It reports whether the drain
// completed (false means the timeout cut it short).
func (p *ClientPort) Stop(drain time.Duration) bool {
	p.draining.Store(true)
	p.ln.Close()
	deadline := time.Now().Add(drain)
	drained := true
	// Deferred Sequential reads (parked on a future commit cycle) do not
	// gate the drain: on an idle or stalling node they would never
	// complete, so only genuinely in-flight work is awaited and the
	// stragglers are then rejected with a draining code.
	for p.outstanding.Load() > p.deferredLocal.Load() {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	if p.outstanding.Load() > 0 {
		p.runner.Invoke(func() {
			p.node().FailLocalReads()
			p.node().FailSessionWaiters()
		})
		// Parked reads fail on the apply executor in parallel mode; give
		// the failure a moment to propagate through the accounting.
		for p.outstanding.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if p.outstanding.Load() > 0 {
			drained = false
		}
	}
	// Local (Cluster.Submit) operations still unanswered after the drain
	// will never complete once the transport closes; honor the done
	// contract (ok=false) now.
	p.mu.Lock()
	loc := p.loc
	p.mu.Unlock()
	if loc != nil {
		p.failPending(loc)
	}
	p.mu.Lock()
	conns := make([]*clientConn, 0, len(p.conns))
	for _, cc := range p.conns {
		conns = append(conns, cc)
	}
	p.mu.Unlock()
	for _, cc := range conns {
		p.dropWatches(cc)
		cc.outMu.Lock()
		cc.closing = true
		cc.outMu.Unlock()
		select {
		case cc.wake <- struct{}{}:
		default:
		}
	}
	done := make(chan struct{})
	go func() { p.writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		drained = false
		for _, cc := range conns {
			if cc.conn != nil {
				cc.conn.Close()
			}
		}
	}
	return drained
}

// Abort tears the port down immediately — close the listener and sever
// every connection without draining. Tests use it to simulate a node
// crash as seen by clients (in-flight requests are simply lost).
func (p *ClientPort) Abort() {
	p.draining.Store(true)
	p.ln.Close()
	p.mu.Lock()
	conns := make([]*clientConn, 0, len(p.conns))
	for _, cc := range p.conns {
		conns = append(conns, cc)
	}
	p.mu.Unlock()
	for _, cc := range conns {
		p.dropWatches(cc)
		cc.outMu.Lock()
		cc.closing = true
		cc.outMu.Unlock()
		if cc.conn != nil {
			cc.conn.Close()
		}
		select {
		case cc.wake <- struct{}{}:
		default:
		}
	}
	// The node is dead: its in-flight requests will never be answered,
	// so retire their accounting. Socket clients recover via failover;
	// local (Cluster.Submit) callers are owed their done callback, with
	// ok=false — and deferred local reads their abandonment.
	p.runner.Invoke(func() {
		p.node().FailLocalReads()
		p.node().FailSessionWaiters()
	})
	for _, cc := range conns {
		p.failPending(cc)
	}
}

// DigestSource builds a replica-identity source for one node: it reads
// the replica with the apply pipeline quiesced (InspectApplied in
// parallel mode, a machine turn in serial mode), so the digest is a
// consistent cut at a cycle boundary. StatusSource layers over it.
func DigestSource(runner *transport.Runner, node *core.Node, st *kvstore.Store) func() (uint64, uint64, uint64) {
	return func() (cycle, state, logd uint64) {
		read := func() {
			cycle = node.Committed()
			state = st.StateDigest()
			logd = st.LogDigest()
		}
		if node.ParallelApply() {
			node.InspectApplied(read)
		} else {
			runner.Invoke(read)
		}
		return
	}
}

// StatusSource builds the admin gateway's /status document source for
// one node, layered over the same quiesced read DigestSource uses so the
// (applied, digest) pair is a consistent cut. Membership and cycle
// watermarks are read inside a machine turn, where the view is stable.
// dur may be nil (no WAL), hub may be nil (no event plane).
// Cluster.Start and canopus-server share it.
func StatusSource(runner *transport.Runner, node *core.Node, st *kvstore.Store, dur *wal.Manager, hub *events.Hub) func() admin.Status {
	digest := DigestSource(runner, node, st)
	return func() admin.Status {
		var s admin.Status
		cycle, state, logd := digest()
		s.Applied = cycle
		s.StateDigest = fmt.Sprintf("%016x", state)
		s.LogDigest = fmt.Sprintf("%016x", logd)
		if hub != nil {
			s.Watchers = hub.Active()
		}
		runner.Invoke(func() {
			s.Node = int32(node.ID())
			s.Started = node.Started()
			s.Ordered = node.Ordered()
			s.Stalled = node.Stalled()
			if node.StallSuspected() {
				s.Degraded = "stalled"
			}
			// A restarted joiner has no view until its join completes —
			// report membership without per-leaf liveness until then.
			view := node.View()
			for _, h := range node.LeafHealth() {
				sl := admin.SuperLeaf{
					Index:     h.SL,
					Failed:    h.Failed,
					Evicted:   h.Evicted,
					EvictedAt: h.EvictedAt,
				}
				for _, m := range h.Members {
					sl.Members = append(sl.Members, int32(m))
					if view != nil && view.Alive(m) {
						sl.Alive = append(sl.Alive, int32(m))
					}
				}
				s.Membership = append(s.Membership, sl)
			}
		})
		if dur != nil {
			ds := dur.Stats()
			s.Durability = &admin.Durability{
				DurableCycle:  ds.DurableCycle,
				Syncs:         ds.Syncs,
				SyncedRecords: ds.SyncedRecords,
				LastBatch:     ds.LastBatch,
				Snapshots:     ds.Snapshots,
			}
		}
		return s
	}
}

// failPending retires every pending entry of one connection, completing
// local done callbacks with ok=false (the Cluster.Submit contract: done
// always fires).
func (p *ClientPort) failPending(cc *clientConn) {
	p.mu.Lock()
	p.dropSessPendingLocked(cc)
	if len(cc.pending) == 0 {
		cc.pending = nil
		p.mu.Unlock()
		return
	}
	p.outstanding.Add(int64(-len(cc.pending)))
	pending := cc.pending
	cc.pending = nil
	p.mu.Unlock()
	for _, entry := range pending {
		if entry.done != nil {
			entry.done(nil, false)
		}
	}
}
