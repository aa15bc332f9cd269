// Command livebench is the repository's end-to-end benchmark. It boots
// in-process livecluster deployments on loopback TCP, drives them
// through the public canopus/client API with a seeded Poisson open-loop
// generator (every latency timed from the request's due time), checks
// every reply and the replicas' final state, and prints its metrics by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run times the calls into each layer from outside and reports
// per-layer figures instead. See README.md for the workloads and what
// each metric means.
//
// Usage (from the repository root):
//
//	bash livebench/run.sh --workload kv-readheavy-6n --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured window (the traced run splits it between its untraced and traced halves)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for durable workloads' data (removed after each run) and traced runs' spans")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "usage: livebench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}

	shape := hostShape()
	fmt.Printf("host %s\n", shape)
	r := runner{w: w, seed: *seed, seconds: *seconds,
		dataDir:  dataDirFor(filepath.Join(*out, "livebench-data"), w.name, *seed),
		traceDir: filepath.Join(*out, "livebench-traces")}
	var rep report
	var err error
	if *trace == 1 {
		rep, err = r.traced()
	} else {
		rep, err = r.untraced()
	}
	os.RemoveAll(r.dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// hostShape records what the figures were measured on: results taken on
// different shapes are not comparable.
func hostShape() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	b, _ := json.Marshal(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
		"gogc":       gogc,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	})
	return string(b)
}
