package spinnaker

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§9 and Appendix D), plus ablations of the design choices
// DESIGN.md calls out. Each benchmark runs the corresponding experiment
// from internal/bench once per iteration (they take seconds, so testing.B
// settles on N=1) and prints the same rows/series the paper reports.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkFigure9 -benchmem
// Longer sweeps:    go run ./cmd/spinnaker-bench -all -point 1s
//
// See EXPERIMENTS.md for paper-vs-measured for each experiment.

import (
	"fmt"
	"testing"
	"time"

	"spinnaker/internal/bench"
)

// benchConfig keeps the full suite under a few minutes; the shapes are
// already stable at these durations.
func benchConfig(b *testing.B) bench.Config {
	cfg := bench.Defaults()
	cfg.PointDuration = 250 * time.Millisecond
	cfg.Threads = []int{1, 2, 4, 8, 16, 32}
	cfg.Rows = 800
	cfg.Progress = func(line string) {
		if testing.Verbose() {
			b.Log(line)
		}
	}
	return cfg
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := bench.Run(name, benchConfig(b))
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			fmt.Printf("\n%s\n", table.Format())
		}
	}
}

// BenchmarkFigure8ReadLatency regenerates Figure 8: average read latency vs
// load for Spinnaker consistent/timeline reads and Cassandra quorum/weak
// reads (§9.1).
func BenchmarkFigure8ReadLatency(b *testing.B) { runExperiment(b, "figure8") }

// BenchmarkFigure9WriteLatency regenerates Figure 9: average write latency
// vs load on the HDD log device (§9.2).
func BenchmarkFigure9WriteLatency(b *testing.B) { runExperiment(b, "figure9") }

// BenchmarkTable1RecoveryTime regenerates Table 1: cohort recovery time as
// a function of the commit period (App. D.1).
func BenchmarkTable1RecoveryTime(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure11Scaling regenerates Figure 11: write latency vs cluster
// size at fixed per-node load (App. D.2).
func BenchmarkFigure11Scaling(b *testing.B) { runExperiment(b, "figure11") }

// BenchmarkFigure12Mixed regenerates Figure 12: mixed read/write latency vs
// write percentage (App. D.3).
func BenchmarkFigure12Mixed(b *testing.B) { runExperiment(b, "figure12") }

// BenchmarkFigure13SSDLog regenerates Figure 13: write latency with an SSD
// logging device (App. D.4).
func BenchmarkFigure13SSDLog(b *testing.B) { runExperiment(b, "figure13") }

// BenchmarkFigure14ConditionalPut regenerates Figure 14: conditional put vs
// regular put (App. D.5).
func BenchmarkFigure14ConditionalPut(b *testing.B) { runExperiment(b, "figure14") }

// BenchmarkFigure15WeakVsQuorum regenerates Figure 15: Cassandra weak vs
// quorum writes (App. D.6.1).
func BenchmarkFigure15WeakVsQuorum(b *testing.B) { runExperiment(b, "figure15") }

// BenchmarkFigure16MemLog regenerates Figure 16: write latency with a
// main-memory log, committing on 2 of 3 memory logs (App. D.6.2).
func BenchmarkFigure16MemLog(b *testing.B) { runExperiment(b, "figure16") }

// BenchmarkAblationGroupCommit measures the group-commit optimization (§5).
func BenchmarkAblationGroupCommit(b *testing.B) { runExperiment(b, "ablation-groupcommit") }

// BenchmarkAblationPiggybackCommit measures piggybacking commit information
// on proposes (App. D.1).
func BenchmarkAblationPiggybackCommit(b *testing.B) { runExperiment(b, "ablation-piggyback") }

// BenchmarkAblationStaleness measures timeline staleness vs commit period (§5).
func BenchmarkAblationStaleness(b *testing.B) { runExperiment(b, "ablation-staleness") }

// BenchmarkAblationParallelPropose measures the parallel force+propose
// design choice of Figure 4.
func BenchmarkAblationParallelPropose(b *testing.B) { runExperiment(b, "ablation-parallelpropose") }

// BenchmarkAblationProposalBatching compares proposal batching against one
// write per propose message (the paper's Figure 4 message pattern) at
// 1/4/16/64 concurrent writers.
func BenchmarkAblationProposalBatching(b *testing.B) { runExperiment(b, "ablation-batching") }

// BenchmarkScaleOut measures write throughput while the same running
// cluster grows live from 3 to 5 to 7 nodes via AddNode + Rebalance.
func BenchmarkScaleOut(b *testing.B) { runExperiment(b, "scale-out") }

// BenchmarkStorageMaintenance measures strong-read latency under a
// sustained update stream with LSM maintenance off vs churning
// (compaction-under-load; see also the microbenchmarks in
// internal/storage).
func BenchmarkStorageMaintenance(b *testing.B) { runExperiment(b, "storage-maintenance") }
