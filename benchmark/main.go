// Command benchmark is the repo's benchmark: four named workloads on a
// 3-node, 3-way-replicated cluster wired from the public constructors,
// end-to-end metrics from an undecorated run and per-layer metrics from a
// traced one. BENCHMARK.json at the root of the repo names the workloads,
// the metrics and their regression bounds; README.md explains them.
//
//	bash benchmark/run.sh --workload write-mem --seed 1 --seconds 18 --trace 0
//	bash benchmark/run.sh --seed 1 --out results.json          # all four workloads
//	bash benchmark/run.sh --compare a.json b.json              # or a1.json,a2.json,a3.json b1.json,...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

const minCPUs = 2

// report is what -out writes: the results by workload and where they were
// measured.
type report struct {
	Meta    map[string]any    `json:"meta"`
	Results map[string]result `json:"results"`
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of keys, operation mix and values")
		seconds  = flag.Int("seconds", 18, "seconds of measuring per workload")
		trace    = flag.Int("trace", 0, "1 installs the tracing decorators and reports the per-layer metrics")
		out      = flag.String("out", "", "file to write the results to, for -compare")
		traceOut = flag.String("trace-out", "", "file to write the spans of a traced run to (with several workloads, one file each, suffixed with its name)")
		dataDir  = flag.String("dir", ".bench_build", "directory for file stores; they are removed at exit")
		compare  = flag.Bool("compare", false, "compare two result files (or comma-separated sets) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare base.json[,base2.json...] new.json[,new2.json...]")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if runtime.NumCPU() < minCPUs {
		fatal("this machine has %d CPU; the benchmark needs %d (load generator and cluster share one process)", runtime.NumCPU(), minCPUs)
	}
	if *seconds < 3 {
		fatal("-seconds must be at least 3")
	}
	selected := workloads
	if *name != "all" {
		wl, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		selected = []workload{wl}
	}
	meta := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"seed": *seed, "seconds": *seconds, "trace": *trace, "commit": os.Getenv("BENCH_COMMIT"),
		"note": "no delay is injected on links or devices: latency is processor time only",
	}
	metaLine, _ := json.Marshal(meta) // a map of strings and numbers always encodes
	fmt.Printf("benchmark %s\n", metaLine)

	rep := report{Meta: meta, Results: make(map[string]result)}
	defs := endToEndDefs
	if *trace != 0 {
		defs = perLayerDefs
	}
	failed := false
	for _, wl := range selected {
		spans := *traceOut
		if spans != "" && len(selected) > 1 {
			spans += "." + wl.name
		}
		res, err := runWorkload(wl, defaultPlan(*seconds), *seed, *trace != 0, *dataDir, spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
			failed = true
			if res.Metrics == nil {
				continue // the run did not get as far as a result
			}
		}
		printTable(fmt.Sprintf("%s: correct=%v attempted=%d failed=%d", wl.name, res.Correct, res.Attempted, res.Failed), defs, res.Metrics)
		rep.Results[wl.name] = res
		line, _ := json.Marshal(res)
		fmt.Println(string(line)) // the last line of a one-workload run is its result
	}
	if *out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+strings.TrimSuffix(format, "\n")+"\n", args...)
	os.Exit(2)
}
