// Command chaos-smoke is the CI live-chaos gate across real process
// boundaries. It boots three canopus-server processes as three
// single-node super-leaves with every inter-node byte routed through a
// chaosnet proxy fabric owned by this orchestrator, then walks the full
// operator storyline of a super-leaf outage:
//
//  1. blackhole node 2's super-leaf at the socket layer;
//  2. wait for the survivors to evict it — observed the way an operator
//     would, by scraping canopus_core_leaf_evictions_total through the
//     admin gateway — and require the eviction within 4× the configured
//     -leaf-timeout;
//  3. drive post-eviction writes to prove the survivors kept serving;
//  4. heal; the evicted process learns its fate from the survivors'
//     dead-in-view notices and exits with status 3 (-exit-on-evict);
//  5. restart it with -join and pass only once all three replicas
//     converge to one non-zero state digest that serves the
//     post-eviction writes from the rejoined node.
//
// Usage:
//
//	chaos-smoke -server ./bin/canopus-server [-timeout 60s]
//
// Exit status 0 means the live eviction/readmission loop held end to
// end across process boundaries.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/exec"
	"strconv"
	"time"

	"canopus/admin"
	"canopus/client"
	"canopus/internal/chaosnet"
	"canopus/internal/smoke"
	"canopus/internal/wire"
)

const nodes = 3

func main() {
	server := flag.String("server", "", "path to the canopus-server binary (required)")
	leafTimeout := flag.Duration("leaf-timeout", 500*time.Millisecond, "eviction timeout handed to the servers")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline for each phase")
	flag.Parse()
	log.SetPrefix("chaos-smoke: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	if *server == "" {
		log.Fatal("-server is required")
	}

	peerAddrs := smoke.ReservePorts(nodes)
	clientAddrs := smoke.ReservePorts(nodes)
	adminAddrs := smoke.ReservePorts(nodes)

	// The fabric lives in the orchestrator: each node's -peers entry for
	// every OTHER node is that directed link's proxy, so all inter-node
	// traffic is impairable while client and admin ports stay direct.
	fabric := chaosnet.New(chaosnet.Config{Logf: log.Printf, Seed: 42})
	defer fabric.Close()
	proxied := make([][]string, nodes)
	for i := range proxied {
		proxied[i] = make([]string, nodes)
		for j := range proxied[i] {
			if i == j {
				proxied[i][j] = peerAddrs[i]
				continue
			}
			addr, err := fabric.AddLink(wire.NodeID(i), wire.NodeID(j), peerAddrs[j])
			if err != nil {
				log.Fatalf("link %d->%d: %v", i, j, err)
			}
			proxied[i][j] = addr
		}
	}

	admins := make([]*admin.Client, nodes)
	for i := range admins {
		admins[i] = admin.New(adminAddrs[i])
	}

	start := func(i int, join bool) *exec.Cmd {
		peers := proxied[i][0]
		for _, a := range proxied[i][1:] {
			peers += "," + a
		}
		args := []string{
			"-id", strconv.Itoa(i),
			"-peers", peers,
			"-superleaves", "0;1;2",
			"-client", clientAddrs[i],
			"-admin-addr", adminAddrs[i],
			"-leaf-timeout", leafTimeout.String(),
			"-exit-on-evict",
		}
		if join {
			args = append(args, "-join")
		}
		cmd := exec.Command(*server, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("start node %d: %v", i, err)
		}
		return cmd
	}
	procs := make([]*exec.Cmd, nodes)
	for i := range procs {
		procs[i] = start(i, false)
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	ctx := context.Background()
	smoke.WaitAllHealthy(admins, *timeout)
	log.Print("cluster up; seeding pre-partition writes")
	cl := smoke.Dial(clientAddrs[0])
	defer cl.Close()
	for k := uint64(1); k <= 6; k++ {
		if err := cl.Put(ctx, k, []byte("pre")); err != nil {
			log.Fatalf("pre-partition put %d: %v", k, err)
		}
	}

	// Blackhole node 2 and wedge one write inside it through its direct
	// client port: the cycle that write starts keeps retrying cross-leaf
	// fetches, and the first retry to land after the heal draws the
	// Evicted notice that -exit-on-evict turns into exit status 3.
	log.Print("partitioning node 2")
	fabric.Partition([]wire.NodeID{0, 1}, []wire.NodeID{2})
	cut := time.Now()
	wedge := smoke.Dial(clientAddrs[2])
	defer wedge.Close()
	_ = wedge.PutAsync(200, []byte("doomed"))

	// The post-partition writes go in right away: eviction rounds are
	// driven by cycles wedged on the dead leaf's missing state, so the
	// survivors need in-flight load to notice the silence. The writes
	// must complete once (and only once) the leaf is evicted.
	post := make([]*client.Future, 0, 5)
	for k := uint64(100); k < 105; k++ {
		post = append(post, cl.PutAsync(k, []byte("post")))
	}

	// Eviction, observed through the survivors' metrics.
	evictBudget := 4 * *leafTimeout
	waitMetric(ctx, admins[0], "canopus_core_leaf_evictions_total", 1, evictBudget+*timeout)
	evictIn := time.Since(cut)
	if evictIn > evictBudget {
		log.Fatalf("eviction took %v, budget 4*leaf-timeout = %v", evictIn, evictBudget)
	}
	log.Printf("survivors evicted node 2's leaf in %v", evictIn)
	for i, f := range post {
		if _, err := f.Wait(ctx); err != nil {
			log.Fatalf("post-partition put %d: %v", i, err)
		}
	}

	// Heal, then require the evicted process to discover its fate and
	// exit 3 so a supervisor (here: us) can bounce it back in as a
	// joiner.
	log.Print("healing; waiting for node 2 to exit on eviction")
	fabric.Heal()
	exited := make(chan error, 1)
	go func() { exited <- procs[2].Wait() }()
	select {
	case err := <-exited:
		code := procs[2].ProcessState.ExitCode()
		if code != 3 {
			log.Fatalf("evicted node exited %d (err %v), want 3", code, err)
		}
	case <-time.After(*timeout):
		log.Fatalf("evicted node did not exit within %v of the heal", *timeout)
	}
	log.Print("node 2 exited 3; restarting with -join")
	procs[2] = start(2, true)

	smoke.WaitAllHealthy(admins, *timeout)
	state := smoke.Converge(admins, *timeout).State
	got, err := smoke.Dial(clientAddrs[2]).Get(ctx, 104)
	if err != nil || string(got) != "post" {
		log.Fatalf("Get(104) via rejoined node = %q, %v", got, err)
	}
	log.Printf("PASS: evicted in %v, readmitted; all %d replicas at state digest %016x", evictIn, nodes, state)

	for i, p := range procs {
		if err := p.Process.Signal(os.Interrupt); err != nil {
			log.Fatalf("stop node %d: %v", i, err)
		}
	}
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			log.Fatalf("node %d shutdown: %v", i, err)
		}
		procs[i] = nil
	}
}

// waitMetric polls one gateway's /metrics until the summed family
// reaches min.
func waitMetric(ctx context.Context, cl *admin.Client, family string, min float64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		series, err := cl.Metrics(ctx)
		if err == nil {
			total := 0.0
			for key, v := range series {
				if len(key) >= len(family) && key[:len(family)] == family {
					total += v
				}
			}
			if total >= min {
				return
			}
		}
		if time.Now().After(deadline) {
			log.Fatalf("%s did not reach %v within %v", family, min, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
