package main

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// runner executes one benchmark run of one workload.
type runner struct {
	w        *workload
	seed     int64
	seconds  int
	dataDir  string // durable shapes' data, removed after the run
	traceDir string // where the traced run writes its spans

	attempted, failed int64
	violations        []string
}

func (r *runner) window() time.Duration { return time.Duration(r.seconds) * time.Second }

// sched draws phase id's schedule; each phase has its own seed stream.
func (r *runner) sched(id uint8, rate float64, dur time.Duration) []op {
	return schedule(r.seed*1_000_003+int64(id), rate, dur, r.w.mix, len(r.w.targets))
}

func (r *runner) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "livebench: %s: VIOLATION: %s\n", r.w.name, msg)
	r.violations = append(r.violations, msg)
}

// account adds a finished phase's outcome counts to the run's totals
// and reports a violation for any failed or unfinished op.
func (r *runner) account(p *phase, what string) {
	r.attempted += int64(len(p.ops))
	lost := int64(len(p.ops)) - p.completed.Load()
	bad := p.errs.Load() + lost
	r.failed += bad
	if bad != 0 {
		r.violate("%s: %d of %d requests failed or never completed (first error: %v)", what, bad, len(p.ops), p.firstErr)
	}
}

// runPhase issues ops open loop and waits for them to complete.
func (r *runner) runPhase(d *deployment, id uint8, ops []op, traceEvery int) *phase {
	p := d.l.newPhase(id, ops, traceEvery)
	p.run(d.l)
	r.wait(d, p)
	return p
}

// wait waits for p's ops to complete; if they do not, it prints where
// each node's pipeline stands.
func (r *runner) wait(d *deployment, p *phase) {
	if !p.wait(drainWait) {
		fmt.Fprintf(os.Stderr, "livebench: %s: phase %d: %d of %d requests still pending after %v: %s\n",
			r.w.name, p.id, int64(len(p.ops))-p.completed.Load(), len(p.ops), drainWait, describe(d.c))
	}
}

// bootMany boots the deployment n times and keeps the last one; the
// median set-up time is reported, so one slow start does not move it.
func (r *runner) bootMany(n int) (*deployment, []float64, error) {
	var times []float64
	for {
		d, err := boot(r.w, r.seed, r.dataDir, nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.setup.Seconds())
		r.attempted += int64(len(r.w.targets))
		if len(times) == n {
			return d, times, nil
		}
		d.stop()
	}
}

// prepare loads every key once, registers the client watches and warms
// the deployment up at the nominal rate.
func (r *runner) prepare(d *deployment) error {
	r.account(r.runPhase(d, phaseLoad, loadSchedule(r.seed, loadRate, r.w.mix, len(r.w.targets)), 0), "load")
	if err := d.l.watch(context.Background()); err != nil {
		return err
	}
	r.account(r.runPhase(d, phaseWarm, r.sched(phaseWarm, r.w.rate, warmFor), 0), "warm-up")
	return nil
}

// untraced is the end-to-end run: set-up, load, a warm-up, the measured
// window at the nominal rate and, for durable shapes, a restart, with
// every correctness gate applied along the way.
func (r *runner) untraced() (report, error) {
	w := r.w
	d, setupTimes, err := r.bootMany(setups)
	if err != nil {
		return report{}, err
	}
	defer d.stop()
	l := d.l
	if err := r.prepare(d); err != nil {
		return report{}, err
	}

	// The measured window: CPU and allocations are bracketed around it
	// and divided by the ops it completed.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	win := r.runPhase(d, phaseWindow, r.sched(phaseWindow, w.rate, r.window()), 0)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	r.account(win, "measured window")
	s := win.summarize(0, r.window())

	if err := l.awaitWatches(5*time.Second, phaseWarm, phaseWindow); err != nil {
		r.violate("%v", err)
	}
	if err := l.closeWatches(); err != nil {
		r.violate("%v", err)
	}
	if err := l.checkWatches(phaseWarm, phaseWindow); err != nil {
		r.violate("%v", err)
	}
	var watchLat []int64
	for _, wt := range l.watchers {
		watchLat = append(watchLat, wt.lat...)
	}
	slices.Sort(watchLat)

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
		took, err := r.recoverDurable(d, want)
		if err != nil {
			r.violate("%v", err)
		} else {
			fmt.Printf("%-34s %14.6g %s\n", "recovery_s", took.Seconds(), "s")
		}
	}

	completed := float64(s.completed)
	m := map[string]metric{
		"setup_s":       {median(setupTimes), "s"},
		"read_p50_ms":   {ms(quantile(s.readLat, 0.50)), "ms"},
		"write_p50_ms":  {ms(quantile(s.writeLat, 0.50)), "ms"},
		"write_p99_ms":  {ms(quantile(s.writeLat, 0.99)), "ms"},
		"watch_p50_ms":  {ms(quantile(watchLat, 0.50)), "ms"},
		"watch_p99_ms":  {ms(quantile(watchLat, 0.99)), "ms"},
		"cpu_us_per_op": {ratio((cpu1-cpu0).Seconds()*1e6, completed), "us"},
		"allocs_per_op": {ratio(float64(ms1.Mallocs-ms0.Mallocs), completed), "count"},
	}
	// Printed but not among the JSON metrics (see README.md): error_rate
	// is 0 on a healthy run, and read_p99_ms of the local-read mix
	// spreads more between runs than any bound the benchmark may set.
	fmt.Printf("%-34s %14.6g %s\n", "error_rate", float64(s.attempted-s.completed)/float64(s.attempted), "ratio")
	fmt.Printf("%-34s %14.6g %s\n", "read_p99_ms", ms(quantile(s.readLat, 0.99)), "ms")
	fmt.Fprintf(os.Stderr, "livebench: %s: window %d attempted, %d completed, %d reads, %d writes, %d txns (%d aborted), %d watch events timed\n",
		w.name, s.attempted, s.completed, len(s.readLat), len(s.writeLat), s.txns, s.aborted, len(watchLat))
	fmt.Fprintf(os.Stderr, "livebench: %s: generator lateness p99 %.3f ms, max %.3f ms\n",
		w.name, ms(quantile(s.late, 0.99)), ms(quantile(s.late, 1)))
	return report{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// recoverDurable stops the durable deployment gracefully and restarts
// it from its data directory (see deployment.recoverDurable). The
// deployment keeps running afterwards.
func (r *runner) recoverDurable(d *deployment, want uint64) (time.Duration, error) {
	if d.l != nil {
		d.l.close()
		d.l = nil
	}
	d.c.Stop(5 * time.Second)
	d.c = nil
	return d.recoverDurable(want)
}

// capStepResult is one capacity-search step.
type capStepResult struct {
	rate, realized float64
	p99, lateP99   int64
	backlog, errs  int64
	pass           bool
}

// capacity estimates the highest offered rate the deployment sustains
// with step p99 within capP99, no errors and no growing backlog. One
// step's p99 near the knee swings with the odd scheduler or GC stall,
// and so does the knee itself from one second to the next, so a single
// pass/fail bisection is noisy. Instead the search
//   - brackets the knee by doubling the rate from the nominal one until
//     a step fails (halving if the nominal one fails);
//   - then runs capRounds ladders of capLadder rates evenly spaced inside
//     the bracket, each in a seeded random order;
//   - per ladder, fits the p99 of its steps and the bracket's as a
//     non-decreasing function of the realized rate (isotonic
//     regression; a step failing on errors, backlog or generator
//     lateness counts as far over the bound) and takes the rate where
//     the fit crosses capP99, interpolated between the two steps around
//     it;
//   - reports the median of the ladders' crossings.
//
// It prints every step to standard error.
func (r *runner) capacity(d *deployment) float64 {
	var bracket []capStepResult
	lo, hi := 0.0, 0.0
	rate := r.w.rate
	for len(bracket) < 6 && (lo == 0 || hi == 0) {
		st := r.capStep(d, phaseCap+uint8(len(bracket)), rate)
		bracket = append(bracket, st)
		if st.pass {
			lo, rate = rate, rate*2
		} else {
			hi, rate = rate, rate/2
		}
	}
	if lo == 0 || hi == 0 {
		return crossing(bracket, float64(capP99))
	}
	all := slices.Clone(bracket)
	rng := rand.New(rand.NewSource(r.seed))
	var est []float64
	for round := 0; round < capRounds; round++ {
		steps := slices.Clone(bracket)
		for _, k := range rng.Perm(capLadder) {
			st := r.capStep(d, phaseCap+uint8(len(all)), lo+(hi-lo)*float64(k+1)/float64(capLadder+1))
			steps = append(steps, st)
			all = append(all, st)
		}
		est = append(est, crossing(steps, float64(capP99)))
	}
	for _, st := range all {
		fmt.Fprintf(os.Stderr, "livebench: %s: capacity step %.0f req/s: p99 %.2f ms, late p99 %.2f ms, backlog %d, errors %d -> %v\n",
			r.w.name, st.rate, ms(st.p99), ms(st.lateP99), st.backlog, st.errs, st.pass)
	}
	return median(est)
}

// crossing fits the steps' p99 against realized rate as a non-decreasing
// function and returns the rate where the fit reaches bound (ns).
func crossing(steps []capStepResult, bound float64) float64 {
	pts := slices.Clone(steps)
	slices.SortFunc(pts, func(a, b capStepResult) int { return cmp.Compare(a.realized, b.realized) })
	ys := make([]float64, len(pts))
	for i, st := range pts {
		ys[i] = float64(st.p99)
		if !st.pass && ys[i] <= bound { // failed on errors, backlog or lateness
			ys[i] = 10 * bound
		}
	}
	fit := isotonic(ys)
	if len(pts) == 0 || fit[0] > bound {
		return 0
	}
	for i := 1; i < len(pts); i++ {
		if fit[i] > bound {
			r0, r1 := pts[i-1].realized, pts[i].realized
			return r0 + (bound-fit[i-1])/(fit[i]-fit[i-1])*(r1-r0)
		}
	}
	return pts[len(pts)-1].realized
}

// isotonic is the least-squares non-decreasing fit of ys (pool adjacent
// violators).
func isotonic(ys []float64) []float64 {
	type block struct{ sum, n float64 }
	var bs []block
	for _, y := range ys {
		bs = append(bs, block{y, 1})
		for len(bs) > 1 && bs[len(bs)-2].sum/bs[len(bs)-2].n > bs[len(bs)-1].sum/bs[len(bs)-1].n {
			last := bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			bs[len(bs)-1].sum += last.sum
			bs[len(bs)-1].n += last.n
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range bs {
		for k := 0; k < int(b.n); k++ {
			out = append(out, b.sum/b.n)
		}
	}
	return out
}

func (r *runner) capStep(d *deployment, id uint8, rate float64) capStepResult {
	p := d.l.newPhase(id, r.sched(id, rate, capStep), 0)
	p.run(d.l)
	backlog := p.issued.Load() - p.completed.Load()
	r.wait(d, p)
	r.account(p, fmt.Sprintf("capacity step at %.0f req/s", rate))
	s := p.summarize(int64(capWarm), capStep)
	lat := append(append([]int64{}, s.readLat...), s.writeLat...)
	slices.Sort(lat)
	st := capStepResult{
		rate:     rate,
		realized: float64(s.attempted) / s.dur,
		p99:      quantile(lat, 0.99),
		lateP99:  quantile(s.late, 0.99),
		backlog:  backlog,
		errs:     int64(s.attempted - s.completed),
	}
	p.compact()
	allowed := int64(rate*capP99.Seconds()) + 64
	st.pass = st.errs == 0 && st.p99 <= int64(capP99) && st.lateP99 <= int64(capP99) && st.backlog <= allowed
	return st
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
