package smoke

import (
	"context"
	"testing"
	"time"

	"canopus/admin"
	"canopus/internal/core"
	"canopus/internal/livecluster"
)

func TestReservePortsDistinct(t *testing.T) {
	addrs := ReservePorts(4)
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate port in %v", addrs)
		}
		seen[a] = true
	}
}

// TestHealthAndConvergeOnLiveCluster runs the gateway pollers against an
// in-process cluster: every node turns healthy, and after one write
// every replica reports the same non-zero digest.
func TestHealthAndConvergeOnLiveCluster(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  7,
		Admin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	admins := make([]*admin.Client, c.NumNodes())
	for i := range admins {
		admins[i] = admin.New(c.AdminAddr(i))
	}
	WaitAllHealthy(admins, 10*time.Second)

	cl := Dial(c.ClientAddr(0), c.ClientAddr(1))
	defer cl.Close()
	if err := cl.Put(context.Background(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d := Converge(admins, 10*time.Second)
	if d.State == 0 {
		t.Fatal("converged on the empty digest")
	}
}
