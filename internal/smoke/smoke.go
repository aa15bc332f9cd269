// Package smoke is the scaffolding the process-level smoke commands
// (cmd/durability-smoke, cmd/chaos-smoke) share: free loopback ports,
// admin-gateway health and digest polling, and client dialing. The
// helpers serve command mains, so failures exit through log.Fatal; each
// command names itself with log.SetPrefix.
package smoke

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"canopus/admin"
	"canopus/client"
)

// ReservePorts binds n loopback listeners to pick free ports, then
// releases them for the servers to claim.
func ReservePorts(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// WaitAllHealthy polls every admin gateway until /healthz reports ok.
// The gateway binds before WAL replay starts, so during recovery this
// sees 503 "recovering" rather than connection-refused — and "ok" means
// the client port is accepting too.
func WaitAllHealthy(admins []*admin.Client, timeout time.Duration) {
	for i, cl := range admins {
		deadline := time.Now().Add(timeout)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			h, err := cl.Health(ctx)
			cancel()
			if err == nil && h.Status == "ok" {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("node %d not healthy after %v (status %q, err %v)", i, timeout, h.Status, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// Converge polls every admin gateway until all replicas report one
// non-zero state digest, and returns it.
func Converge(admins []*admin.Client, timeout time.Duration) admin.Digest {
	deadline := time.Now().Add(timeout)
	for {
		digests := make([]admin.Digest, len(admins))
		states := make([]string, len(admins))
		agree := true
		for i, cl := range admins {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			d, err := cl.Digest(ctx)
			cancel()
			digests[i], states[i] = d, fmt.Sprintf("%016x", d.State)
			if err != nil {
				states[i] = err.Error()
			}
			agree = agree && err == nil && d.State != 0 && d.State == digests[0].State
		}
		if agree {
			return digests[0]
		}
		if time.Now().After(deadline) {
			log.Fatalf("replicas did not converge within %v: %v", timeout, states)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Dial opens a client on the given endpoints.
func Dial(endpoints ...string) *client.Client {
	cl, err := client.New(client.Config{Endpoints: endpoints, RequestTimeout: 30 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	return cl
}
