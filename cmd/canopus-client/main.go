// Command canopus-client talks to canopus-server's client port through
// the canopus/client package (client protocol v3).
//
// Interactive: run with no command and type "PUT 7 hello", "GET 7" or
// "DEL 7", one per line (any case; QUIT or end of input exits). Each
// line answers OK, VALUE <v>, NIL or ERR <reason>, so piped input works
// too:
//
//	printf 'PUT 1 hello\nGET 1\n' | canopus-client -addr 127.0.0.1:8000
//
// One-shot: pass a command —
//
//	canopus-client -addr 127.0.0.1:8000 put 7 hello
//	canopus-client -addr 127.0.0.1:8000 get 7
//	canopus-client -addr 127.0.0.1:8000 -consistency stale get 7
//	canopus-client -addr 127.0.0.1:8000 del 7
//
// -addr takes a comma-separated endpoint list; the client fails over
// along it. -consistency selects the read path in both modes:
// linearizable (default, ordered through consensus), sequential (local
// committed state, monotone per session) or stale (local committed
// state, immediate).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"canopus/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8000", "comma-separated canopus-server client addresses")
	level := flag.String("consistency", "linearizable", "read consistency: linearizable | sequential | stale")
	timeout := flag.Duration("timeout", 15*time.Second, "per-request timeout")
	flag.Parse()

	consistency, err := parseLevel(*level)
	if err != nil {
		log.Fatal("canopus-client: ", err)
	}
	cl, err := client.New(client.Config{Endpoints: strings.Split(*addr, ","), RequestTimeout: *timeout})
	if err != nil {
		log.Fatal("canopus-client: ", err)
	}
	defer cl.Close()

	if flag.NArg() == 0 {
		if err := interactive(os.Stdin, os.Stdout, cl, consistency); err != nil {
			log.Fatal("canopus-client: ", err)
		}
		return
	}
	r := run(context.Background(), cl, consistency, flag.Args())
	switch {
	case errors.Is(r.err, client.ErrNotFound):
		fmt.Println("NIL")
		cl.Close()
		os.Exit(1)
	case r.err != nil:
		log.Fatal("canopus-client: ", r.err)
	case r.hit:
		fmt.Printf("%s\n", r.val)
	default:
		fmt.Println("OK")
	}
}

// interactive answers one command per input line until QUIT or the end
// of input, each reply written before the next line is read.
func interactive(in io.Reader, out io.Writer, cl *client.Client, level client.Consistency) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		if strings.EqualFold(args[0], "quit") {
			break
		}
		if _, err := fmt.Fprintln(out, run(context.Background(), cl, level, args)); err != nil {
			return err
		}
	}
	return sc.Err()
}

// reply is one command's outcome.
type reply struct {
	val []byte
	hit bool  // a get found val
	err error // client.ErrNotFound for a get miss
}

// String renders the interactive reply line.
func (r reply) String() string {
	switch {
	case errors.Is(r.err, client.ErrNotFound):
		return "NIL"
	case r.err != nil:
		return "ERR " + r.err.Error()
	case r.hit:
		return "VALUE " + string(r.val)
	}
	return "OK"
}

// run executes one command — put <key> <value>, get <key> or del <key>,
// in any case — the dispatcher both modes share.
func run(ctx context.Context, cl *client.Client, level client.Consistency, args []string) reply {
	cmd := strings.ToLower(args[0])
	usage := map[string]string{"put": "put <key> <value>", "get": "get <key>", "del": "del <key>"}[cmd]
	switch {
	case usage == "":
		return reply{err: fmt.Errorf("unknown command %q (want put|get|del)", args[0])}
	case cmd == "put" && len(args) < 3, cmd != "put" && len(args) != 2:
		return reply{err: errors.New("usage: " + usage)}
	}
	key, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return reply{err: fmt.Errorf("bad key %q", args[1])}
	}
	switch cmd {
	case "put":
		return reply{err: cl.Put(ctx, key, []byte(strings.Join(args[2:], " ")))}
	case "get":
		val, err := cl.Get(ctx, key, client.WithConsistency(level))
		return reply{val: val, hit: err == nil, err: err}
	default:
		return reply{err: cl.Delete(ctx, key)}
	}
}

func parseLevel(s string) (client.Consistency, error) {
	switch strings.ToLower(s) {
	case "linearizable", "":
		return client.Linearizable, nil
	case "sequential":
		return client.Sequential, nil
	case "stale":
		return client.Stale, nil
	default:
		return 0, fmt.Errorf("unknown consistency %q (want linearizable|sequential|stale)", s)
	}
}
