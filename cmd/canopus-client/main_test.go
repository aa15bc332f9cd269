package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/livecluster"
)

// TestInteractiveAgainstLiveCluster drives the command dispatcher the
// way piped input does, against an in-process three-node cluster, with
// the endpoint list failing over past a dead address.
func TestInteractiveAgainstLiveCluster(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	cl, err := client.New(client.Config{
		Endpoints:      []string{"127.0.0.1:1", c.ClientAddr(0)},
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	in := strings.Join([]string{
		"PUT 3 abc def",
		"GET 3",
		"",
		"get 4",
		"DEL 3",
		"GET 3",
		"FROB 1",
		"PUT 3",
		"GET x",
		"QUIT",
		"PUT 9 after-quit",
	}, "\n")
	var out strings.Builder
	if err := interactive(strings.NewReader(in), &out, cl, client.Linearizable); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"OK",
		"VALUE abc def",
		"NIL",
		"OK",
		"NIL",
		`ERR unknown command "FROB" (want put|get|del)`,
		"ERR usage: put <key> <value>",
		`ERR bad key "x"`,
	}, "\n") + "\n"
	if out.String() != want {
		t.Fatalf("interactive output:\n%s\nwant:\n%s", out.String(), want)
	}

	// The one-shot mode shares the dispatcher; -consistency reaches it.
	ctx := context.Background()
	if r := run(ctx, cl, client.Linearizable, []string{"put", "5", "v"}); r.err != nil {
		t.Fatal(r.err)
	}
	if r := run(ctx, cl, client.Sequential, []string{"get", "5"}); !r.hit || string(r.val) != "v" {
		t.Fatalf("sequential get = %v", r)
	}
	if r := run(ctx, cl, client.Linearizable, []string{"get", "9"}); r.String() != "NIL" {
		t.Fatalf("line after QUIT ran: get 9 = %v", r)
	}
}
