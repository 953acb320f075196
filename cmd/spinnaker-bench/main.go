// spinnaker-bench regenerates the paper's evaluation tables and figures
// (§9 and Appendix D) from the command line, with adjustable measurement
// windows for longer, lower-variance runs than the go test harness.
//
// Usage:
//
//	spinnaker-bench -all                 # every experiment, paper order
//	spinnaker-bench -exp figure9        # one experiment
//	spinnaker-bench -exp table1 -point 500ms -nodes 10
//	spinnaker-bench -list               # list experiment names
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"spinnaker/internal/bench"
)

func main() {
	var (
		all     = flag.Bool("all", false, "run every experiment in paper order")
		exp     = flag.String("exp", "", "experiment name (see -list)")
		list    = flag.Bool("list", false, "list experiment names and exit")
		point   = flag.Duration("point", 300*time.Millisecond, "measurement window per load point")
		nodes   = flag.Int("nodes", 6, "cluster size for single-cluster experiments")
		rows    = flag.Int("rows", 2000, "preloaded key-space size")
		value   = flag.Int("value", 4096, "value size in bytes (paper: 4KB)")
		threads = flag.String("threads", "1,2,4,8,16,32", "comma-separated client thread counts")
		quiet   = flag.Bool("q", false, "suppress progress lines")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile of the experiment run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	if *list {
		for _, name := range bench.Names {
			fmt.Println(name)
		}
		return
	}

	cfg := bench.Config{
		PointDuration: *point,
		Nodes:         *nodes,
		Rows:          *rows,
		ValueSize:     *value,
	}
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad -threads entry %q\n", part)
			os.Exit(2)
		}
		cfg.Threads = append(cfg.Threads, n)
	}
	if !*quiet {
		cfg.Progress = func(line string) { fmt.Fprintf(os.Stderr, "  .. %s\n", line) }
	}

	var names []string
	switch {
	case *all:
		names = bench.Names
	case *exp != "":
		names = []string{*exp}
	default:
		fmt.Fprintln(os.Stderr, "need -all or -exp <name>; see -list")
		os.Exit(2)
	}

	for _, name := range names {
		start := time.Now()
		table, err := bench.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("\n%s(completed in %v)\n", table.Format(), time.Since(start).Round(time.Millisecond))
	}
}
