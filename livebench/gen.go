package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is one request shape of a workload mix.
type opKind uint8

const (
	kRead    opKind = iota // linearizable Get: ordered through a cycle
	kReadSeq               // Sequential Get: local committed state, no cycle
	kPut                   // session Put
	kTxn                   // two-key txn guarded by IfValueEq on a read value
)

func (k opKind) isRead() bool   { return k == kRead || k == kReadSeq }
func (k opKind) writes() bool   { return k == kPut || k == kTxn }
func (k opKind) String() string { return [...]string{"read", "read-seq", "put", "txn"}[k] }

// op is one scheduled request. The struct holds no pointers, so a
// schedule of millions costs the garbage collector nothing to scan.
type op struct {
	at   int64  // due time, ns after the phase start
	key  uint32 // key index (the workload maps it to a key)
	key2 uint32 // kTxn: second written key index
	kind opKind
	conn uint8
}

// Per-op outcome codes.
const (
	stPending uint8 = iota
	stOK
	stAborted // txn whose guard failed: an outcome, not an error
	stErr
)

// result is one op's outcome, written once by its completion.
type result struct {
	lat    int64  // ns from due to completion
	late   int64  // ns from due to the moment the generator issued it
	cycle  uint64 // commit cycle reported with the reply
	status uint8
}

// mix is a workload's request mix: shares of each kind (summing to 1)
// over a key space of keys indexes.
type mix struct {
	read, readSeq, put, txn float64
	keys                    int
}

// schedule draws a Poisson open-loop arrival schedule at rate req/s for
// dur, assigning each arrival a kind, key(s) and a connection uniformly
// at random. The same seed gives the same schedule.
func schedule(seed int64, rate float64, dur time.Duration, m mix, conns int) []op {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate*dur.Seconds()*1.05) + 16
	ops := make([]op, 0, n)
	t := 0.0
	end := float64(dur.Nanoseconds())
	meanGap := 1e9 / rate
	for {
		t += rng.ExpFloat64() * meanGap
		if t >= end {
			return ops
		}
		o := op{at: int64(t), key: uint32(rng.Intn(m.keys)), conn: uint8(rng.Intn(conns))}
		switch u := rng.Float64(); {
		case u < m.read:
			o.kind = kRead
		case u < m.read+m.readSeq:
			o.kind = kReadSeq
		case u < m.read+m.readSeq+m.put:
			o.kind = kPut
		default:
			o.kind = kTxn
			o.key2 = uint32(rng.Intn(m.keys - 1))
			if o.key2 >= o.key {
				o.key2++
			}
		}
		ops = append(ops, o)
	}
}

// loadSchedule writes every key index of m once, in a seeded random
// order, as Poisson arrivals at rate req/s.
func loadSchedule(seed int64, rate float64, m mix, conns int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, m.keys)
	t := 0.0
	for i, k := range rng.Perm(m.keys) {
		t += rng.ExpFloat64() * 1e9 / rate
		ops[i] = op{at: int64(t), key: uint32(k), kind: kPut, conn: uint8(i % conns)}
	}
	return ops
}

// issuer sends op i of phase p. It must eventually call p.complete(i,
// ...) exactly once, from any goroutine (or synchronously).
type issuer interface {
	issue(p *phase, i int)
}

// phase is one open-loop pass over a schedule: the generator issues
// each op at its due time, and every latency is measured from that due
// time — never from when the op was actually sent — so a stall charges
// its delay to every request that fell due during it.
type phase struct {
	id    uint8
	ops   []op
	res   []result
	start time.Time

	issued    atomic.Int64 // ops handed to the issuer (stored before the hand-off)
	completed atomic.Int64
	errs      atomic.Int64

	// traceEvery > 0 records the issue-call span of every traceEvery-th
	// op in issueEnd (ns after start; index i/traceEvery).
	traceEvery int
	issueEnd   []int64

	// seen marks txn ops whose written value some read returned: a
	// read may only see a txn that committed (checked at the end). Nil
	// when the schedule has no txns.
	seen []uint32

	// status keeps each op's outcome once compact dropped res.
	status []uint8

	mu        sync.Mutex
	violation string // first correctness violation observed
	firstErr  error  // first request error observed
}

func newPhase(id uint8, ops []op, traceEvery int) *phase {
	p := &phase{id: id, ops: ops, res: make([]result, len(ops)), traceEvery: traceEvery}
	if slices.ContainsFunc(ops, func(o op) bool { return o.kind == kTxn }) {
		p.seen = make([]uint32, len(ops))
	}
	if traceEvery > 0 {
		p.issueEnd = make([]int64, len(ops)/traceEvery+1)
	}
	return p
}

// now returns nanoseconds since the phase start.
func (p *phase) now() int64 { return int64(time.Since(p.start)) }

// run drives the whole schedule through is from the calling goroutine
// and returns once every op is issued (not completed; see wait).
func (p *phase) run(is issuer) {
	p.start = time.Now()
	for i := range p.ops {
		due := p.ops[i].at
		now := p.now()
		if due > now {
			time.Sleep(time.Duration(due - now))
			now = p.now()
		}
		p.res[i].late = now - due
		p.issued.Store(int64(i + 1))
		is.issue(p, i)
		if p.traceEvery > 0 && i%p.traceEvery == 0 {
			p.issueEnd[i/p.traceEvery] = p.now()
		}
	}
}

// completeErr records op i's failure.
func (p *phase) completeErr(i int, err error) {
	p.mu.Lock()
	if p.firstErr == nil {
		p.firstErr = fmt.Errorf("%s of key %d: %w", p.ops[i].kind, p.ops[i].key, err)
	}
	p.mu.Unlock()
	p.complete(i, stErr, 0)
}

// complete records op i's outcome. status is stOK, stAborted or stErr.
func (p *phase) complete(i int, status uint8, cycle uint64) {
	r := &p.res[i]
	r.lat = p.now() - p.ops[i].at
	r.cycle = cycle
	r.status = status
	if status == stErr {
		p.errs.Add(1)
	}
	p.completed.Add(1) // publishes r to whoever observes the count
}

// wait blocks until every issued op completed or the deadline passed;
// it reports whether all completed.
func (p *phase) wait(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for p.completed.Load() < int64(len(p.ops)) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// compact keeps only each op's outcome, for a phase whose latencies
// have been summarized: capacity steps would otherwise hold hundreds of
// megabytes of per-op results.
func (p *phase) compact() {
	p.status = make([]uint8, len(p.res))
	for i := range p.res {
		p.status[i] = p.res[i].status
	}
	p.res = nil
}

// statusOf returns op i's outcome.
func (p *phase) statusOf(i int) uint8 {
	if p.res == nil {
		return p.status[i]
	}
	return p.res[i].status
}

// fail records a correctness violation (the first one is kept).
func (p *phase) fail(msg string) {
	p.mu.Lock()
	if p.violation == "" {
		p.violation = msg
	}
	p.mu.Unlock()
}

// summary is a phase's latency and outcome digest over the ops due at
// or after from (ns): warm-up arrivals are excluded from the figures.
type summary struct {
	attempted, completed, errs, aborted, txns int
	readLat, writeLat                         []int64 // ns, sorted
	late                                      []int64 // ns, sorted
	dur                                       float64 // seconds of schedule summarized
}

func (p *phase) summarize(from int64, span time.Duration) summary {
	s := summary{dur: (span - time.Duration(from)).Seconds()}
	for i := range p.ops {
		if p.ops[i].at < from {
			continue
		}
		s.attempted++
		r := &p.res[i]
		s.late = append(s.late, r.late)
		if p.ops[i].kind == kTxn {
			s.txns++
		}
		switch r.status {
		case stPending:
			continue
		case stErr:
			s.errs++
			continue
		case stAborted:
			s.aborted++
		}
		s.completed++
		if p.ops[i].kind.isRead() {
			s.readLat = append(s.readLat, r.lat)
		} else {
			s.writeLat = append(s.writeLat, r.lat)
		}
	}
	slices.Sort(s.readLat)
	slices.Sort(s.writeLat)
	slices.Sort(s.late)
	return s
}

// Value encoding. Every written value starts with an 8-byte header
// naming its writer — connection, phase, op index — and its key index;
// the rest is a pad derived from the header. A lost, reordered or
// corrupted write therefore changes the replicas' digests, and any read
// can be traced back to the exact write it observed.

func header(conn, phase uint8, seq int, key uint32) uint64 {
	return uint64(conn&0xf)<<60 | uint64(phase&0x3f)<<54 | uint64(seq&(1<<30-1))<<24 | uint64(key&(1<<24-1))
}

func splitHeader(h uint64) (conn, phase uint8, seq int, key uint32) {
	return uint8(h >> 60), uint8(h>>54) & 0x3f, int(h>>24) & (1<<30 - 1), uint32(h) & (1<<24 - 1)
}

func fillValue(b []byte, h uint64) {
	binary.BigEndian.PutUint64(b, h)
	x := h
	for j := 8; j < len(b); j++ {
		if j%8 == 0 {
			x = splitmix(x)
		}
		b[j] = byte(x >> (8 * (j % 8)))
	}
}

// decodeValue returns the header of a well-formed value, or ok=false.
func decodeValue(b []byte, size int) (uint64, bool) {
	if len(b) != size {
		return 0, false
	}
	h := binary.BigEndian.Uint64(b)
	x := h
	for j := 8; j < len(b); j++ {
		if j%8 == 0 {
			x = splitmix(x)
		}
		if b[j] != byte(x>>(8*(j%8))) {
			return 0, false
		}
	}
	return h, true
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// quantile returns the q-quantile of sorted (nearest rank), 0 if empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
