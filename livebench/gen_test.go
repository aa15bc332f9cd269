package main

import (
	"slices"
	"testing"
	"time"
)

// stallIssuer completes every op at once, except that issuing op
// stallAt blocks the generator for stall — a client write that hangs.
type stallIssuer struct {
	stallAt int
	stall   time.Duration
}

func (s stallIssuer) issue(p *phase, i int) {
	if i == s.stallAt {
		time.Sleep(s.stall)
	}
	p.complete(i, stOK, 0)
}

// TestStallChargesDueRequests is the coordinated-omission case: every
// request that fell due while the endpoint stalled is charged the rest
// of the stall, although each one completes the instant it is sent.
func TestStallChargesDueRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	ops := schedule(7, 2000, time.Second, mix{read: 1, keys: 16}, 1)
	k := slices.IndexFunc(ops, func(o op) bool { return o.at >= int64(300*time.Millisecond) })
	p := newPhase(phaseWindow, ops, 0)
	p.run(stallIssuer{stallAt: k, stall: stall})
	if !p.wait(time.Second) {
		t.Fatal("ops did not complete")
	}
	stallEnd := ops[k].at + int64(stall)
	due := 0
	for j := k; j < len(ops) && ops[j].at < stallEnd; j++ {
		due++
		r := p.res[j]
		if want := stallEnd - ops[j].at; r.lat < want {
			t.Errorf("op %d due %v into the stall: latency %v, want at least %v",
				j, time.Duration(ops[j].at-ops[k].at), time.Duration(r.lat), time.Duration(want))
		}
		// Timed from when it was actually sent, every op queued behind
		// the stalled one looks instant: the measure a send-time open
		// loop would have reported.
		if sent := r.lat - r.late; j > k && sent > int64(50*time.Millisecond) {
			t.Errorf("op %d: %v from send to completion, want ~0", j, time.Duration(sent))
		}
	}
	if due < 100 {
		t.Fatalf("only %d ops fell due during the stall", due)
	}
	s := p.summarize(0, time.Second)
	if late := quantile(s.late, 1); late < int64(stall)*9/10 {
		t.Errorf("generator lateness max %v, want about the %v stall", time.Duration(late), stall)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	m := mix{read: 0.6, put: 0.2, txn: 0.2, keys: 256}
	a := schedule(3, 5000, time.Second, m, 2)
	b := schedule(3, 5000, time.Second, m, 2)
	c := schedule(4, 5000, time.Second, m, 2)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 4500 || n > 5500 {
		t.Fatalf("%d arrivals in 1s at 5000/s", n)
	}
	for _, o := range a {
		if o.kind == kTxn && o.key == o.key2 {
			t.Fatalf("txn writes key %d twice", o.key)
		}
	}
}

func TestValueNamesItsWrite(t *testing.T) {
	for _, size := range []int{8, 128} {
		h := header(1, phaseCap+3, 123456, 65535)
		v := make([]byte, size)
		fillValue(v, h)
		got, ok := decodeValue(v, size)
		if !ok || got != h {
			t.Fatalf("size %d: decoded %x, %v; want %x", size, got, ok, h)
		}
		if conn, ph, seq, key := splitHeader(got); conn != 1 || ph != phaseCap+3 || seq != 123456 || key != 65535 {
			t.Fatalf("split %d %d %d %d", conn, ph, seq, key)
		}
		v[size-1] ^= 1
		if _, ok := decodeValue(v, size); ok && size > 8 {
			t.Fatalf("size %d: a corrupted pad decoded", size)
		}
	}
}

func TestCrossingInterpolatesTheMonotoneFit(t *testing.T) {
	step := func(rate, p99ms float64, pass bool) capStepResult {
		return capStepResult{realized: rate, p99: int64(p99ms * 1e6), pass: pass}
	}
	bound := float64(20 * time.Millisecond)
	// The 150k step's stall is pooled with its neighbours by the fit.
	got := crossing([]capStepResult{
		step(100e3, 8, true), step(150e3, 30, false), step(175e3, 10, true),
		step(200e3, 40, false), step(225e3, 0, false),
	}, bound)
	if got < 150e3 || got > 200e3 {
		t.Fatalf("crossing %v, want between the noisy steps", got)
	}
	if got := crossing([]capStepResult{step(100e3, 8, true), step(200e3, 12, true)}, bound); got != 200e3 {
		t.Fatalf("never-crossing fit gave %v, want the highest rate", got)
	}
	if got := isotonic([]float64{1, 3, 2, 4}); !slices.Equal(got, []float64{1, 2.5, 2.5, 4}) {
		t.Fatalf("isotonic = %v", got)
	}
}
