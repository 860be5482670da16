// Command perfbench is statdb's repository benchmark. One closed-loop
// client with no think time drives one of three workloads in process —
// explore (cached Summary DB answers), scan (statistical passes over
// transposed files larger than the buffer pool) and clean (update,
// describe, undo cycles) — and checks every answer against an oracle
// computed from the generated data with the serial internal/stats
// functions. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate run replays the same op stream with spans and reports the
// per-layer ones. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // directory the traced run writes its spans to
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "explore", "workload: explore, scan or clean")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated data and the op stream")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	cfg.trace = trace == 1
	var res result
	var err error
	if cfg.trace {
		res, err = traced(cfg, stdout)
	} else {
		res, err = timed(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
