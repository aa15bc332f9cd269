package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"canopus/client"
)

// live issues a workload's ops through the public canopus/client API,
// one client (one connection) per target node, and checks every reply.
type live struct {
	w   *workload
	cls []*client.Client

	// phases indexes every phase run against this deployment by its
	// header number, so a read can be traced to the write it observed.
	phases [64]atomic.Pointer[phase]

	// lastRead[conn][key] is the header of the value the connection
	// last read at that key (0 = absent): the txn guard's operand.
	lastRead [][]atomic.Uint64

	// Completion slots: each carries a callback bound once, so issuing
	// an op allocates no closure in the benchmark. Slots are recycled.
	slotMu sync.Mutex
	free   []*slot

	txnWG sync.WaitGroup

	watchers []*watcher
}

type slot struct {
	l  *live
	p  *phase
	i  int
	fn func(client.Result, error)
}

func newLive(w *workload, endpoints []string) (*live, error) {
	l := &live{w: w, lastRead: make([][]atomic.Uint64, len(endpoints))}
	for c, ep := range endpoints {
		cl, err := client.New(client.Config{Endpoints: []string{ep}, RequestTimeout: -1})
		if err != nil {
			l.close()
			return nil, err
		}
		l.cls = append(l.cls, cl)
		l.lastRead[c] = make([]atomic.Uint64, w.mix.keys)
	}
	return l, nil
}

// close tears the clients down (watches die with them).
func (l *live) close() {
	for _, cl := range l.cls {
		cl.Close()
	}
	l.txnWG.Wait()
	for _, wt := range l.watchers {
		<-wt.done
	}
}

// newPhase registers a phase over ops, so reads in later phases can be
// traced to its writes.
func (l *live) newPhase(id uint8, ops []op, traceEvery int) *phase {
	p := newPhase(id, ops, traceEvery)
	l.phases[id].Store(p)
	return p
}

func (l *live) getSlot(p *phase, i int) *slot {
	l.slotMu.Lock()
	var s *slot
	if n := len(l.free); n > 0 {
		s = l.free[n-1]
		l.free = l.free[:n-1]
	}
	l.slotMu.Unlock()
	if s == nil {
		s = &slot{l: l}
		s.fn = s.done
	}
	s.p, s.i = p, i
	return s
}

func (s *slot) done(res client.Result, err error) {
	l, p, i := s.l, s.p, s.i
	l.slotMu.Lock()
	l.free = append(l.free, s)
	l.slotMu.Unlock()
	if err != nil {
		p.completeErr(i, err)
		return
	}
	if o := &p.ops[i]; o.kind.isRead() {
		l.checkRead(p, i, res)
	}
	p.complete(i, stOK, res.Cycle)
}

// value returns the bytes op i of p writes at key index k.
func (l *live) value(p *phase, i int, k uint32) []byte {
	v := make([]byte, l.w.valSize)
	fillValue(v, header(p.ops[i].conn, p.id, i, k))
	return v
}

func (l *live) issue(p *phase, i int) {
	o := &p.ops[i]
	cl := l.cls[o.conn]
	switch o.kind {
	case kRead, kReadSeq:
		cons := client.Linearizable
		if o.kind == kReadSeq {
			cons = client.Sequential
		}
		cl.Async(client.Op{Kind: client.OpGet, Key: l.w.keyOf(o.key), Consistency: cons}, l.getSlot(p, i).fn)
	case kPut:
		cl.Async(client.Op{Kind: client.OpPut, Key: l.w.keyOf(o.key), Val: l.value(p, i, o.key)}, l.getSlot(p, i).fn)
	case kTxn:
		var guard []byte
		if h := l.lastRead[o.conn][o.key].Load(); h != 0 {
			guard = make([]byte, l.w.valSize)
			fillValue(guard, h)
		}
		t := client.NewTxn().IfValueEq(l.w.keyOf(o.key), guard).
			Put(l.w.keyOf(o.key), l.value(p, i, o.key)).
			Put(l.w.keyOf(o.key2), l.value(p, i, o.key2))
		tf := cl.TxnAsync(t)
		l.txnWG.Add(1)
		go func() {
			defer l.txnWG.Done()
			r, err := tf.Wait(context.Background())
			switch {
			case err != nil:
				p.completeErr(i, err)
			case r.Committed:
				p.complete(i, stOK, r.Cycle)
			default:
				p.complete(i, stAborted, r.Cycle)
			}
		}()
	}
}

// checkRead verifies that a read returned nil or a value some issued
// write put at that key, and remembers it as the txn guard operand.
func (l *live) checkRead(p *phase, i int, res client.Result) {
	o := &p.ops[i]
	if !res.Found {
		l.lastRead[o.conn][o.key].Store(0)
		return
	}
	h, ok := decodeValue(res.Val, l.w.valSize)
	if !ok {
		p.fail(fmt.Sprintf("%s of key %d returned a malformed value %x", o.kind, o.key, res.Val))
		return
	}
	conn, ph, seq, k := splitHeader(h)
	if k != o.key {
		p.fail(fmt.Sprintf("%s of key %d returned the value written at key %d", o.kind, o.key, k))
		return
	}
	wp := l.phases[ph].Load()
	if wp == nil || int64(seq) >= wp.issued.Load() {
		p.fail(fmt.Sprintf("%s of key %d returned a value never written (phase %d op %d)", o.kind, o.key, ph, seq))
		return
	}
	wo := &wp.ops[seq]
	if wo.conn != conn || !wo.kind.writes() || (wo.key != k && (wo.kind != kTxn || wo.key2 != k)) {
		p.fail(fmt.Sprintf("%s of key %d returned a value phase %d op %d did not write", o.kind, o.key, ph, seq))
		return
	}
	if wo.kind == kTxn {
		atomic.StoreUint32(&wp.seen[seq], 1)
	}
	l.lastRead[o.conn][o.key].Store(h)
}

// checkTxnReads fails p if any read observed the value of a txn that
// did not commit. Run after every phase has completed.
func (l *live) checkTxnReads() error {
	for id := range l.phases {
		p := l.phases[id].Load()
		if p == nil || p.seen == nil {
			continue
		}
		for i := range p.ops {
			if atomic.LoadUint32(&p.seen[i]) != 0 && p.statusOf(i) != stOK {
				return fmt.Errorf("a read observed a value of phase %d txn %d, which did not commit", id, i)
			}
		}
	}
	return nil
}

// violations returns the first recorded violation of any phase.
func (l *live) violations() error {
	for id := range l.phases {
		if p := l.phases[id].Load(); p != nil {
			p.mu.Lock()
			v := p.violation
			p.mu.Unlock()
			if v != "" {
				return errors.New(v)
			}
		}
	}
	return nil
}

// watcher is one client watch and everything it delivered.
type watcher struct {
	conn int
	spec watchSpec
	w    *client.Watch
	done chan struct{}

	// Written by the consumer goroutine only; read after done closes.
	recs    []watchRec
	nrecs   atomic.Int64 // len(recs), readable while the consumer runs
	lat     []int64      // window-phase events from the other connection, ns from due
	order   string       // first cycle-order violation
	lastCyc uint64
}

type watchRec struct {
	h     uint64 // value header: names the write
	cycle uint64
}

// watch registers every client's watches and starts their consumers.
func (l *live) watch(ctx context.Context) error {
	for c, cl := range l.cls {
		for _, s := range l.w.watches {
			w, err := cl.Watch(ctx, l.w.keyOf(s.key), client.WithPrefix(s.bits), client.WithBuffer(1<<14))
			if err != nil {
				return fmt.Errorf("watch on connection %d: %w", c, err)
			}
			wt := &watcher{conn: c, spec: s, w: w, done: make(chan struct{})}
			l.watchers = append(l.watchers, wt)
			go l.consume(wt)
		}
	}
	return nil
}

func (l *live) consume(wt *watcher) {
	defer close(wt.done)
	for ev := range wt.w.Events() {
		now := time.Now()
		if ev.Cycle < wt.lastCyc && wt.order == "" {
			wt.order = fmt.Sprintf("watch delivered cycle %d after cycle %d", ev.Cycle, wt.lastCyc)
		}
		wt.lastCyc = ev.Cycle
		for _, e := range ev.Events {
			h, ok := decodeValue(e.Val, l.w.valSize)
			if !ok {
				wt.recs = append(wt.recs, watchRec{cycle: ev.Cycle}) // h=0 never matches a write
				wt.nrecs.Add(1)
				continue
			}
			wt.recs = append(wt.recs, watchRec{h: h, cycle: ev.Cycle})
			wt.nrecs.Add(1)
			conn, ph, seq, _ := splitHeader(h)
			if ph != phaseWindow || int(conn) == wt.conn {
				continue
			}
			if p := l.phases[ph].Load(); p != nil && seq < len(p.ops) {
				wt.lat = append(wt.lat, int64(now.Sub(p.start))-p.ops[seq].at)
			}
		}
	}
}

// closeWatches cancels every watch and waits for its consumer.
func (l *live) closeWatches() error {
	var err error
	for _, wt := range l.watchers {
		if e := wt.w.Err(); e != nil && err == nil {
			err = fmt.Errorf("watch on connection %d died: %w", wt.conn, e)
		}
		wt.w.Close()
		<-wt.done
	}
	return err
}

// checkWatches verifies that every watcher saw every committed write to
// a key it covers, from the given phases, exactly once, no later than
// the cycle its reply named, with cycles non-decreasing — and nothing
// else.
func (l *live) checkWatches(phaseIDs ...uint8) error {
	for wi, wt := range l.watchers {
		if wt.order != "" {
			return fmt.Errorf("watcher %d: %s", wi, wt.order)
		}
		seen := make(map[uint64]uint64, len(wt.recs))
		for _, r := range wt.recs {
			if _, dup := seen[r.h]; dup {
				return fmt.Errorf("watcher %d: event %x delivered twice", wi, r.h)
			}
			seen[r.h] = r.cycle
		}
		want := 0
		for _, id := range phaseIDs {
			p := l.phases[id].Load()
			for i := range p.ops {
				o := &p.ops[i]
				if !o.kind.writes() || p.res[i].status != stOK {
					continue
				}
				keys := []uint32{o.key}
				if o.kind == kTxn {
					keys = append(keys, o.key2)
				}
				for _, k := range keys {
					if !l.w.watched(wt.spec, k) {
						continue
					}
					want++
					cyc, ok := seen[header(o.conn, id, i, k)]
					if !ok {
						return fmt.Errorf("watcher %d missed phase %d op %d (%s of key %d, cycle %d)", wi, id, i, o.kind, k, p.res[i].cycle)
					}
					// The reply names the serving node's applied cycle
					// when it was sent, which durable replies (held
					// for the group fsync) can carry past the op's own.
					if cyc > p.res[i].cycle {
						return fmt.Errorf("watcher %d saw phase %d op %d in cycle %d, after its reply named cycle %d", wi, id, i, cyc, p.res[i].cycle)
					}
				}
			}
		}
		if len(seen) != want {
			return fmt.Errorf("watcher %d saw %d events but %d committed writes match it", wi, len(seen), want)
		}
	}
	return nil
}

// awaitWatches waits until every watcher has received as many events as
// the given phases committed writes it covers (checkWatches then checks
// they are the right ones), or timeout passes.
func (l *live) awaitWatches(timeout time.Duration, phaseIDs ...uint8) error {
	deadline := time.Now().Add(timeout)
	for wi, wt := range l.watchers {
		want := int64(0)
		for _, id := range phaseIDs {
			p := l.phases[id].Load()
			for i := range p.ops {
				o := &p.ops[i]
				if !o.kind.writes() || p.res[i].status != stOK {
					continue
				}
				if l.w.watched(wt.spec, o.key) {
					want++
				}
				if o.kind == kTxn && l.w.watched(wt.spec, o.key2) {
					want++
				}
			}
		}
		for wt.nrecs.Load() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("watcher %d received %d of %d events", wi, wt.nrecs.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
