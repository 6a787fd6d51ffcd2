// Command perfbench is the repository's benchmark. It drives the ladiff
// system only through its public entry points, with their default
// configuration, over three workloads:
//
//   - lib-corpus: parse (text) → Diff → BuildDelta in-process over every
//     gen class;
//   - serve-routed: client → router → two server replicas over loopback
//     HTTP with small zipf-drawn documents;
//   - store-history: ingest, checkout and compose against an on-disk
//     version store.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a run
// that alternates untraced and traced blocks. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"
)

// scale sizes a workload's inputs. The self-tests use tinyScale.
type scale struct {
	// lib-corpus: pairs generated per gen class.
	libPerClass int
	// serve-routed: distinct pairs in the request pool and the length
	// of the zipf-drawn request sequence.
	servePool, serveSeq int
	// store-history: keys, and versions per key in the history log
	// written before set-up.
	storeKeys, storeHistory int
	// setups is how many times set-up runs; setup_s is their median.
	// lib-corpus, whose set-up is a whole pass, runs libSetups.
	setups, libSetups int
}

var fullScale = scale{libPerClass: 8, servePool: 1024, serveSeq: 65536, storeKeys: 8, storeHistory: 24, setups: 7, libSetups: 3}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	workDir  string
	scale    scale
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"lib-corpus":    runLib,
	"serve-routed":  runServe,
	"store-history": runStore,
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: lib-corpus, serve-routed or store-history")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory the traced run writes its span ledger to")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for the store-history log")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {lib-corpus|serve-routed|store-history} --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.scale = fullScale
	// The server's default logger writes one access line per request to
	// the standard logger; the benchmark's report is stdout, so send the
	// log lines nowhere instead of into the result stream.
	log.SetOutput(io.Discard)

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	host, _ := json.Marshal(hostStamp())
	fmt.Printf("host %s\n", host)
	props, _ := json.Marshal(out.inputs)
	fmt.Printf("inputs %s\n", props)
	for _, m := range out.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s\n", m)
	}
	line, err := json.Marshal(out.result(cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.correct() {
		os.Exit(1)
	}
}

// window converts the --seconds flag to a duration.
func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
