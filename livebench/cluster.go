package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/livecluster"
	"canopus/internal/metrics"
	"canopus/internal/wal"
)

// deployment is one booted cluster with its loaded client connections.
type deployment struct {
	w       *workload
	cfg     livecluster.Config
	c       *livecluster.Cluster
	l       *live
	setup   time.Duration // Start until every connection had an acked write
	dataDir string
}

// clusterConfig is the deployment every run uses: loopback TCP with no
// injected delay, and the 2ms cycle and tick interval of the repo's live
// harness.
func clusterConfig(w *workload, seed int64, dataDir string, fs func(int) wal.FS) livecluster.Config {
	cfg := livecluster.Config{
		SuperLeaves: w.leaves,
		Node: core.Config{
			CycleInterval: 2 * time.Millisecond,
			TickInterval:  2 * time.Millisecond,
			MaxBatch:      4096,
		},
		Seed:    seed,
		Metrics: metrics.NewRegistry(),
	}
	if w.durable {
		cfg.DataDir, cfg.DataFS = dataDir, fs
		cfg.SnapshotCycles = w.snapshotCycles
	}
	return cfg
}

// boot starts a deployment from an empty data directory and loads one
// acked write on every client connection.
func boot(w *workload, seed int64, dataDir string, fs func(int) wal.FS) (*deployment, error) {
	if w.durable {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	d := &deployment{w: w, cfg: clusterConfig(w, seed, dataDir, fs), dataDir: dataDir}
	t0 := time.Now()
	c, err := livecluster.Start(d.cfg)
	if err != nil {
		return nil, err
	}
	d.c = c
	if d.l, err = newLive(w, d.endpoints()); err != nil {
		d.stop()
		return nil, err
	}
	ops := make([]op, len(w.targets))
	for i := range ops {
		ops[i] = op{kind: kPut, key: uint32(i), conn: uint8(i)}
	}
	p := d.l.newPhase(phaseSetup, ops, 0)
	p.run(d.l)
	if !p.wait(drainWait) || p.errs.Load() != 0 {
		d.stop()
		return nil, fmt.Errorf("set-up writes failed")
	}
	d.setup = time.Since(t0)
	return d, nil
}

func (d *deployment) endpoints() []string {
	eps := make([]string, len(d.w.targets))
	for i, n := range d.w.targets {
		eps[i] = d.c.Endpoint(n)
	}
	return eps
}

// stop closes the clients and shuts the cluster down gracefully.
func (d *deployment) stop() {
	if d.l != nil {
		d.l.close()
		d.l = nil
	}
	if d.c != nil {
		d.c.Stop(5 * time.Second)
		d.c = nil
	}
}

// digests waits until every replica has ordered the same cycle, drains
// each node's apply pipeline and returns the agreed StateDigest. It
// fails if the replicas still disagree after timeout.
func digests(c *livecluster.Cluster, timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	n := c.NumNodes()
	ds := make([]uint64, n)
	for {
		ord := c.Node(0).Ordered()
		agree := true
		for i := 0; i < n; i++ {
			node := c.Node(i)
			if node.Ordered() != ord {
				agree = false
			}
			node.DrainApply()
			c.InspectStore(i, func(st *kvstore.Store) { ds[i] = st.StateDigest() })
			if ds[i] != ds[0] {
				agree = false
			}
		}
		if agree && c.Node(0).Ordered() == ord {
			return ds[0], nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica digests disagree: %x", ds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serve reads key through a fresh client pinned to endpoint and
// reports whether the read succeeded before timeout.
func serve(endpoint string, key uint64, timeout time.Duration) error {
	cl, err := client.New(client.Config{Endpoints: []string{endpoint}})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_, err = cl.Get(ctx, key)
	if err == client.ErrNotFound {
		err = nil
	}
	return err
}

// recoverDurable restarts a stopped durable deployment (d.c must be
// nil) from its data directory and measures the time until every
// replica serves a read. The replicas must then agree on want, the
// digest they held before the stop. The restarted cluster is left
// running in d.c.
func (d *deployment) recoverDurable(want uint64) (time.Duration, error) {
	t0 := time.Now()
	c, err := livecluster.Start(d.cfg)
	if err != nil {
		return 0, fmt.Errorf("restart from disk: %w", err)
	}
	d.c = c
	for i := 0; i < c.NumNodes(); i++ {
		if err := serve(c.Endpoint(i), d.w.keyOf(0), drainWait); err != nil {
			return 0, fmt.Errorf("node %d after restart: %w", i, err)
		}
	}
	took := time.Since(t0)
	got, err := digests(c, 10*time.Second)
	if err != nil {
		return 0, fmt.Errorf("after restart: %w", err)
	}
	if got != want {
		return 0, fmt.Errorf("restarted digest %x, want the pre-stop digest %x", got, want)
	}
	return took, nil
}

func dataDirFor(root, w string, seed int64) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d-%d", w, seed, os.Getpid()))
}

// describe summarizes every node's progress watermarks, for the
// diagnosis printed when requests stop completing.
func describe(c *livecluster.Cluster) string {
	var b strings.Builder
	for i := 0; i < c.NumNodes(); i++ {
		n := c.Node(i)
		fmt.Fprintf(&b, "node %d: started %d ordered %d applied %d", i, n.Started(), n.Ordered(), n.Committed())
		if m := c.Durability(i); m != nil {
			fmt.Fprintf(&b, " durable %d", m.DurableCycle())
		}
		fmt.Fprintf(&b, " outstanding %d stalled %v; ", c.Port(i).Outstanding(), n.StallSuspected())
	}
	return b.String()
}
