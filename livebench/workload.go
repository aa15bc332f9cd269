package main

import (
	"time"

	"canopus/internal/wire"
)

// workload is one traffic mix on one deployment shape. README.md says
// why each was chosen and which layers each one loads.
type workload struct {
	name   string
	leaves [][]wire.NodeID
	// snapshotCycles is the WAL snapshot cadence of durable shapes:
	// short enough that every measured window holds several snapshots,
	// so their stall shows in each run's tail instead of in some runs.
	snapshotCycles int
	targets        []int // nodes the client connections are pinned to, one each
	durable        bool
	mix            mix
	valSize        int
	rate           float64 // nominal offered rate, req/s
	hot            bool    // keys live in the 256-key hot region (keyOf)
	// watches are the prefix watches every client registers: each is
	// a key index and how many of the key's top bits it matches.
	watches []watchSpec
}

type watchSpec struct {
	key  uint32
	bits uint8
}

const hotBase = 0x5a5a_0000_0000_0000 // low 8 bits clear: 256 hot keys

// keyOf maps a key index to its key. Uniform workloads spread the
// 65,536 indexes over the top 16 bits, so a prefix watch on the top n
// bits covers 1/2^n of them; the hot region shares its top 56 bits.
func (w *workload) keyOf(i uint32) uint64 {
	if w.hot {
		return hotBase + uint64(i)
	}
	return uint64(i) << 48
}

// watched reports whether watch s covers key index i.
func (w *workload) watched(s watchSpec, i uint32) bool {
	shift := 64 - uint(s.bits)
	return w.keyOf(s.key)>>shift == w.keyOf(i)>>shift
}

var workloads = []*workload{
	{
		name:    "kv-readheavy-6n",
		leaves:  [][]wire.NodeID{{0, 1, 2}, {3, 4, 5}},
		targets: []int{0, 3},
		mix:     mix{read: 0.8, put: 0.2, keys: 1 << 16},
		valSize: 8,
		rate:    100_000,
		// One narrow watch per client (1/16 of the keys): enough
		// events to time delivery, too few to load the event hub.
		watches: []watchSpec{{key: 5 << 12, bits: 4}},
	},
	{
		name:           "kv-durable-writeheavy-3n",
		leaves:         [][]wire.NodeID{{0, 1, 2}},
		targets:        []int{0, 1},
		durable:        true,
		snapshotCycles: 1024,
		mix:            mix{read: 0.5, put: 0.5, keys: 1 << 16},
		valSize:        128,
		rate:           20_000,
		watches:        []watchSpec{{key: 5 << 10, bits: 6}},
	},
	{
		name:    "coord-watch-txn-3n",
		leaves:  [][]wire.NodeID{{0, 1, 2}},
		targets: []int{0, 1},
		mix:     mix{readSeq: 0.6, put: 0.2, txn: 0.2, keys: 256},
		valSize: 8,
		rate:    30_000,
		hot:     true,
		// Four prefix watches per client, one per quarter of the hot
		// region: every write reaches one watch on each connection.
		watches: []watchSpec{{0, 58}, {64, 58}, {128, 58}, {192, 58}},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Run shape. Phases are numbered into the written values' headers.
const (
	phaseSetup  = 0
	phaseLoad   = 1
	phaseWarm   = 2
	phaseWindow = 3
	phaseTraced = 4
	phaseCap    = 5 // capacity steps take phaseCap, phaseCap+1, ...

	loadRate  = 50_000 // req/s of the phase that writes every key once
	warmFor   = time.Second
	setups    = 9 // set-ups per untraced run; setup_s is their median
	capRounds = 3 // capacity ladders; capacity_req_s is their median crossing
	capLadder = 6 // steps per ladder
	capStep   = 750 * time.Millisecond
	capWarm   = 150 * time.Millisecond // excluded from each step's figures
	capP99    = 20 * time.Millisecond  // the latency bound capacity must meet
	drainWait = 20 * time.Second
	traceOne  = 16 // the traced run follows 1 request in traceOne
)
