package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canopus/internal/events"
	"canopus/internal/metrics"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// The traced run times, from outside, the calls into each layer's
// public functions; nothing inside the program is instrumented. All
// trace times are nanoseconds since epoch.
var epoch = time.Now()

func since() int64 { return int64(time.Since(epoch)) }

// interval is one timed call: a span without identity yet.
type interval struct{ start, end int64 }

// traceFS wraps each node's real-disk WAL filesystem, timing every
// Sync (fsyncs stay real) and counting bytes written and read.
type traceFS struct {
	on      atomic.Bool // record fsync spans and written bytes
	mu      sync.Mutex
	syncs   [][]interval // per node
	written atomic.Int64
	read    atomic.Int64
	dir     string
}

func (t *traceFS) forNode(i int) wal.FS {
	t.mu.Lock()
	for len(t.syncs) <= i {
		t.syncs = append(t.syncs, nil)
	}
	t.mu.Unlock()
	fs, err := wal.DirFS(filepath.Join(t.dir, fmt.Sprintf("node-%d", i)))
	if err != nil {
		return failFS{err}
	}
	return &nodeFS{FS: fs, t: t, node: i}
}

type nodeFS struct {
	wal.FS
	t    *traceFS
	node int
}

func (fs *nodeFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs}, nil
}

func (fs *nodeFS) Open(name string) (wal.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs}, nil
}

type tracedFile struct {
	wal.File
	fs *nodeFS
}

func (f *tracedFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	if f.fs.t.on.Load() {
		f.fs.t.written.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Read(b []byte) (int, error) {
	n, err := f.File.Read(b)
	f.fs.t.read.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := since()
	err := f.File.Sync()
	if t := f.fs.t; t.on.Load() {
		end := since()
		t.mu.Lock()
		t.syncs[f.fs.node] = append(t.syncs[f.fs.node], interval{start, end})
		t.mu.Unlock()
	}
	return err
}

// failFS reports a directory that could not be created on first use.
type failFS struct{ err error }

func (f failFS) Create(string) (wal.File, error) { return nil, f.err }
func (f failFS) Open(string) (wal.File, error)   { return nil, f.err }
func (f failFS) Remove(string) error             { return f.err }
func (f failFS) Rename(string, string) error     { return f.err }
func (f failFS) List() ([]string, error)         { return nil, f.err }

// commitRec is one OnCommit observation on one node.
type commitRec struct {
	cycle uint64
	at    int64
}

// tracer holds everything the traced phase observes.
type tracer struct {
	d  *deployment
	fs *traceFS // nil for in-memory shapes

	commits [][]commitRec // per node; appended under that node's runner lock

	sinkMu sync.Mutex
	sinks  []sinkRec
	watchs []func()

	stop    chan struct{}
	polled  sync.WaitGroup
	applyMx atomic.Int64 // max Ordered-Committed seen
	durMx   atomic.Int64 // max Ordered-DurableCycle seen
	outMx   atomic.Int64 // max client-port Outstanding seen

	reg0, reg1 map[string]float64
	gc0, gc1   runtime.MemStats
	retries0   uint64
	t0, t1     int64
}

type sinkRec struct {
	node  int
	cycle uint64
	at    int64
}

// startTracer installs the observers and snapshots the counters.
func startTracer(d *deployment, fs *traceFS) *tracer {
	t := &tracer{d: d, fs: fs, stop: make(chan struct{})}
	c := d.c
	n := c.NumNodes()
	t.commits = make([][]commitRec, n)
	for i := 0; i < n; i++ {
		// OnCommit runs in the node's machine turn, under the runner
		// lock Invoke takes, so installing it there is race-free.
		c.Runner(i).Invoke(func() {
			c.Node(i).SetOnCommit(func(cycle uint64, _ []*wire.Batch) {
				t.commits[i] = append(t.commits[i], commitRec{cycle, since()})
			})
		})
	}
	for _, node := range d.w.targets {
		for _, s := range d.w.watches {
			spec := events.Spec{Key: d.w.keyOf(s.key), PrefixBits: s.bits}
			id, err := c.Watch(node, spec, func(nt events.Notification) bool {
				if !nt.Overflow {
					now := since()
					t.sinkMu.Lock()
					t.sinks = append(t.sinks, sinkRec{node, nt.Cycle, now})
					t.sinkMu.Unlock()
				}
				return true
			})
			if err == nil {
				t.watchs = append(t.watchs, func() { c.Unwatch(node, id) })
			}
		}
	}
	t.reg0 = registryTotals(d.cfg.Metrics)
	for _, cl := range d.l.cls {
		t.retries0 += cl.Stats().Retries
	}
	runtime.ReadMemStats(&t.gc0)
	if fs != nil {
		fs.on.Store(true)
	}
	t.polled.Add(1)
	go t.poll()
	t.t0 = since()
	return t
}

// poll samples the pipeline watermarks and client-port queues every
// millisecond while the traced phase runs.
func (t *tracer) poll() {
	defer t.polled.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	c := t.d.c
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		for i := 0; i < c.NumNodes(); i++ {
			n := c.Node(i)
			ord := int64(n.Ordered())
			maxTo(&t.applyMx, ord-int64(n.Committed()))
			if m := c.Durability(i); m != nil {
				maxTo(&t.durMx, ord-int64(m.DurableCycle()))
			}
			maxTo(&t.outMx, c.Port(i).Outstanding())
		}
	}
}

func maxTo(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// finish removes the observers and takes the closing snapshots.
func (t *tracer) finish() {
	t.t1 = since()
	close(t.stop)
	t.polled.Wait()
	if t.fs != nil {
		t.fs.on.Store(false)
	}
	runtime.ReadMemStats(&t.gc1)
	t.reg1 = registryTotals(t.d.cfg.Metrics)
	for _, u := range t.watchs {
		u()
	}
	c := t.d.c
	for i := 0; i < c.NumNodes(); i++ {
		c.Runner(i).Invoke(func() { c.Node(i).SetOnCommit(nil) })
	}
}

// registryTotals sums every registry series over its labels (nodes).
func registryTotals(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	reg.Each(func(name string, _ []metrics.Label, v float64) { out[name] += v })
	return out
}

func (t *tracer) delta(name string) float64 { return t.reg1[name] - t.reg0[name] }

// commitIndex maps, per node, each observed cycle to its commit time.
func (t *tracer) commitIndex() []map[uint64]int64 {
	idx := make([]map[uint64]int64, len(t.commits))
	for i, recs := range t.commits {
		idx[i] = make(map[uint64]int64, len(recs))
		for _, r := range recs {
			idx[i][r.cycle] = r.at
		}
	}
	return idx
}

// span is one recorded span of the trace.
type span struct {
	id, parent int64
	req        int64 // the request's root span; 0 for cycle, Sync and sink spans
	name       string
	node       int
	start, end int64
}

// spanSet collects spans and per-name self times.
type spanSet struct {
	spans []span
	next  int64
}

func (s *spanSet) add(req, parent int64, name string, node int, start, end int64) int64 {
	s.next++
	if req < 0 { // a request's root span is its own request ID
		req = s.next
	}
	s.spans = append(s.spans, span{id: s.next, parent: parent, req: req, name: name, node: node, start: start, end: end})
	return s.next
}

// selfTimes returns, per span name, each span's duration minus the part
// of its interval its children cover.
func (s *spanSet) selfTimes() map[string][]int64 {
	children := map[int64][]interval{}
	for _, sp := range s.spans {
		if sp.parent != 0 {
			children[sp.parent] = append(children[sp.parent], interval{sp.start, sp.end})
		}
	}
	out := map[string][]int64{}
	for _, sp := range s.spans {
		self := sp.end - sp.start - covered(children[sp.id], sp.start, sp.end)
		out[sp.name] = append(out[sp.name], self)
	}
	for _, v := range out {
		slices.Sort(v)
	}
	return out
}

// covered is how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv.start, cur), min(iv.end, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func (s *spanSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, sp := range s.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"node":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			sp.id, sp.parent, sp.req, sp.name, sp.node, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is the per-layer run: the same workload at its nominal rate,
// first untraced and then traced for half the window each, so the run can
// report the tracing overhead and reconcile the layers' medians with
// the untraced latencies.
func (r *runner) traced() (report, error) {
	w := r.w
	var tfs *traceFS
	var fsFor func(int) wal.FS
	if w.durable {
		tfs = &traceFS{dir: r.dataDir}
		fsFor = tfs.forNode
	}
	d, err := boot(w, r.seed, r.dataDir, fsFor)
	if err != nil {
		return report{}, err
	}
	r.attempted += int64(len(w.targets))
	defer d.stop()
	l := d.l
	if err := r.prepare(d); err != nil {
		return report{}, err
	}
	plain := r.runPhase(d, phaseWindow, r.sched(phaseWindow, w.rate, r.window()/2), 0)
	r.account(plain, "untraced window")

	tr := startTracer(d, tfs)
	tp := d.l.newPhase(phaseTraced, r.sched(phaseTraced, w.rate, r.window()/2), traceOne)
	tp.run(d.l)
	r.wait(d, tp)
	tr.finish()
	r.account(tp, "traced window")

	if err := l.awaitWatches(5*time.Second, phaseWarm, phaseWindow, phaseTraced); err != nil {
		r.violate("%v", err)
	}
	if err := l.closeWatches(); err != nil {
		r.violate("%v", err)
	}
	if err := l.checkWatches(phaseWarm, phaseWindow, phaseTraced); err != nil {
		r.violate("%v", err)
	}
	m := r.layerMetrics(d, tr, plain, tp)
	// capacity_req_s is reported here, without a bound: its run-to-run
	// spread is wider than any bound an end-to-end metric may carry.
	m["capacity_req_s"] = metric{r.capacity(d), "req/s"}

	if err := l.checkTxnReads(); err != nil {
		r.violate("%v", err)
	}
	if err := l.violations(); err != nil {
		r.violate("%v", err)
	}
	want, err := digests(d.c, 10*time.Second)
	if err != nil {
		r.violate("after the run: %v", err)
	}
	if err == nil && w.durable {
		read0 := tfs.read.Load()
		took, err := r.recoverDurable(d, want)
		if err != nil {
			r.violate("%v", err)
		}
		m["wal.recovery_s"] = metric{took.Seconds(), "s"}
		m["wal.recovered_bytes"] = metric{float64(tfs.read.Load() - read0), "bytes"}
	}
	return report{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// layerMetrics turns the traced phase into the per-layer figures and
// writes its spans out.
func (r *runner) layerMetrics(d *deployment, tr *tracer, plain, tp *phase) map[string]metric {
	w := r.w
	ps := plain.summarize(0, r.window()/2)
	ts := tp.summarize(0, r.window()/2)
	ops := float64(ts.completed)
	secs := float64(tr.t1-tr.t0) / 1e9
	base := int64(tp.start.Sub(epoch)) // phase-relative ns -> trace ns
	commitAt := tr.commitIndex()

	// Request spans for 1 op in traceOne.
	var set spanSet
	var issue, s2c, c2r []int64
	var readStages, writeStages [4][]int64 // gen.wait, client.issue, submit/local, commit_to_reply
	tr.fs.sortSyncs()
	for i := 0; i < len(tp.ops); i += traceOne {
		o, res := &tp.ops[i], &tp.res[i]
		if res.status == stErr || res.status == stPending {
			continue
		}
		node := w.targets[o.conn]
		due := base + o.at
		issued := due + res.late
		issuedEnd := base + tp.issueEnd[i/traceOne]
		reply := due + res.lat
		if issuedEnd > reply { // the reply beat the Async call's return
			issuedEnd = reply
		}
		root := set.add(-1, 0, "request", node, due, reply)
		set.add(root, root, "gen.wait", node, due, issued)
		set.add(root, root, "client.issue", node, issued, issuedEnd)
		issue = append(issue, issuedEnd-issued)
		stages := &writeStages
		if o.kind.isRead() {
			stages = &readStages
		}
		stages[0] = append(stages[0], issued-due)
		stages[1] = append(stages[1], issuedEnd-issued)
		if o.kind == kReadSeq {
			set.add(root, root, "core.local_read", node, issuedEnd, reply)
			stages[2] = append(stages[2], reply-issuedEnd)
			continue
		}
		at, ok := commitAt[node][res.cycle]
		if !ok {
			continue
		}
		at = min(max(at, issuedEnd), reply)
		set.add(root, root, "core.submit_to_commit", node, issuedEnd, at)
		cr := set.add(root, root, "core.commit_to_reply", node, at, reply)
		for _, iv := range tr.fs.syncsOverlapping(node, at, reply) {
			set.add(root, cr, "wal.fsync", node, iv.start, iv.end)
		}
		s2c = append(s2c, at-issuedEnd)
		c2r = append(c2r, reply-at)
		stages[2] = append(stages[2], at-issuedEnd)
		stages[3] = append(stages[3], reply-at)
	}
	// Every cycle: one span per node from the cycle's first commit
	// anywhere to this node's commit (the straggler wait), and the skew.
	var skew []int64
	for cyc, at0 := range commitAt[0] {
		lo, hi := at0, at0
		all := true
		for n := 1; n < len(commitAt); n++ {
			at, ok := commitAt[n][cyc]
			if !ok {
				all = false
				break
			}
			lo, hi = min(lo, at), max(hi, at)
		}
		if all {
			skew = append(skew, hi-lo)
			for n := range commitAt {
				set.add(0, 0, "core.cycle_commit_wait", n, lo, commitAt[n][cyc])
			}
		}
	}
	// Every Sync.
	var fsyncs []int64
	if tr.fs != nil {
		for n, ivs := range tr.fs.syncs {
			for _, iv := range ivs {
				set.add(0, 0, "wal.sync", n, iv.start, iv.end)
				fsyncs = append(fsyncs, iv.end-iv.start)
			}
		}
	}
	// Event sinks: commit on the node to the in-process sink call.
	var sink []int64
	for _, s := range tr.sinks {
		if at, ok := commitAt[s.node][s.cycle]; ok {
			set.add(0, 0, "events.commit_to_sink", s.node, at, s.at)
			sink = append(sink, s.at-at)
		}
	}
	for _, v := range [][]int64{issue, s2c, c2r, skew, fsyncs, sink} {
		slices.Sort(v)
	}
	for k := range readStages {
		slices.Sort(readStages[k])
		slices.Sort(writeStages[k])
	}

	path := filepath.Join(r.traceDir, w.name+".jsonl") // the latest traced run of each workload
	if err := set.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %s: writing spans: %v\n", w.name, err)
	} else {
		fmt.Fprintf(os.Stderr, "livebench: %s: %d spans written to %s\n", w.name, len(set.spans), path)
	}
	self := set.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("self %-28s p50 %10.4f ms  p99 %10.4f ms  (%d spans)\n", n,
			ms(quantile(self[n], 0.5)), ms(quantile(self[n], 0.99)), len(self[n]))
	}

	cycles := 0.0
	for _, recs := range tr.commits {
		cycles += float64(len(recs))
	}
	cycles /= float64(len(tr.commits))
	var retries uint64
	for _, cl := range d.l.cls {
		retries += cl.Stats().Retries
	}
	var gcPauses []int64
	for g := tr.gc0.NumGC; g < tr.gc1.NumGC && g < tr.gc0.NumGC+256; g++ {
		gcPauses = append(gcPauses, int64(tr.gc1.PauseNs[(g+255)%256]))
	}
	slices.Sort(gcPauses)
	sum := func(st [4][]int64) float64 {
		t := 0.0
		for _, v := range st {
			t += ms(quantile(v, 0.5))
		}
		return t
	}
	m := map[string]metric{
		"gen.late_p99_ms":              {ms(quantile(ts.late, 0.99)), "ms"},
		"gen.late_max_ms":              {ms(quantile(ts.late, 1)), "ms"},
		"client.issue_us_p50":          {float64(quantile(issue, 0.5)) / 1e3, "us"},
		"client.retries":               {float64(retries - tr.retries0), "count"},
		"port.outstanding_max":         {float64(tr.outMx.Load()), "count"},
		"core.submit_to_commit_ms_p50": {ms(quantile(s2c, 0.5)), "ms"},
		"core.submit_to_commit_ms_p99": {ms(quantile(s2c, 0.99)), "ms"},
		"core.commit_to_reply_ms_p50":  {ms(quantile(c2r, 0.5)), "ms"},
		"core.commit_to_reply_ms_p99":  {ms(quantile(c2r, 0.99)), "ms"},
		"core.cycles_per_s":            {cycles / secs, "1/s"},
		"core.ops_per_cycle":           {ratio(ops, cycles), "count"},
		"core.commit_skew_ms_p99":      {ms(quantile(skew, 0.99)), "ms"},
		"core.apply_lag_max_cycles":    {float64(tr.applyMx.Load()), "count"},
		"core.fetch_retries":           {tr.delta("canopus_core_fetch_retries_total"), "count"},
		"core.txn_abort_ratio":         {ratio(float64(ts.aborted), float64(ts.txns)), "ratio"},
		"transport.bytes_per_op":       {ratio(tr.delta("canopus_transport_sent_bytes_total"), ops), "bytes"},
		"transport.writes_per_op":      {ratio(tr.delta("canopus_transport_writes_total"), ops), "count"},
		"events.commit_to_sink_ms_p50": {ms(quantile(sink, 0.5)), "ms"},
		"events.commit_to_sink_ms_p99": {ms(quantile(sink, 0.99)), "ms"},
		"events.deliveries_per_op":     {ratio(tr.delta("canopus_events_delivered_total"), ops), "count"},
		"events.history_bytes":         {tr.reg1["canopus_events_history_bytes"], "bytes"},
		"events.overflows":             {tr.delta("canopus_events_watch_overflows_total"), "count"},
		"runtime.gc_per_s":             {float64(tr.gc1.NumGC-tr.gc0.NumGC) / secs, "1/s"},
		"runtime.gc_pause_p99_ms":      {ms(quantile(gcPauses, 0.99)), "ms"},
		// Reconciliation: the traced layers' medians against the
		// untraced run's latencies, and the tracing overhead.
		"trace.read_stage_sum_ms":  {sum(readStages), "ms"},
		"trace.write_stage_sum_ms": {sum(writeStages), "ms"},
		"trace.read_p50_ms":        {ms(quantile(ts.readLat, 0.5)), "ms"},
		"trace.write_p50_ms":       {ms(quantile(ts.writeLat, 0.5)), "ms"},
		"untraced.read_p50_ms":     {ms(quantile(ps.readLat, 0.5)), "ms"},
		"untraced.write_p50_ms":    {ms(quantile(ps.writeLat, 0.5)), "ms"},
		"trace.overhead_read_ms":   {ms(quantile(ts.readLat, 0.5) - quantile(ps.readLat, 0.5)), "ms"},
		"trace.overhead_write_ms":  {ms(quantile(ts.writeLat, 0.5) - quantile(ps.writeLat, 0.5)), "ms"},
	}
	if w.durable {
		m["wal.fsync_ms_p50"] = metric{ms(quantile(fsyncs, 0.5)), "ms"}
		m["wal.fsync_ms_p99"] = metric{ms(quantile(fsyncs, 0.99)), "ms"}
		m["wal.fsyncs_per_op"] = metric{ratio(float64(len(fsyncs)), ops), "count"}
		m["wal.records_per_fsync"] = metric{ratio(tr.delta("canopus_wal_synced_records_total"), tr.delta("canopus_wal_fsyncs_total")), "count"}
		m["wal.bytes_per_op"] = metric{ratio(float64(tr.fs.written.Load()), ops), "bytes"}
		m["wal.durable_lag_max_cycles"] = metric{float64(tr.durMx.Load()), "count"}
	}
	return m
}

// sortSyncs orders each node's fsync spans by start (nil-safe).
func (t *traceFS) sortSyncs() {
	if t == nil {
		return
	}
	for _, ivs := range t.syncs {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	}
}

// syncsOverlapping returns node's fsync spans that overlap [lo, hi).
func (t *traceFS) syncsOverlapping(node int, lo, hi int64) []interval {
	if t == nil || node >= len(t.syncs) {
		return nil
	}
	ivs := t.syncs[node]
	i := sort.Search(len(ivs), func(k int) bool { return ivs[k].end > lo })
	var out []interval
	for ; i < len(ivs) && ivs[i].start < hi; i++ {
		out = append(out, ivs[i])
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
