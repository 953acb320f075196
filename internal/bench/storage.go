package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/sim"
	"spinnaker/internal/wal"
)

// StorageMaintenance measures the cost of LSM maintenance on the serving
// path — the compaction-under-load experiment. The same mixed workload
// (strong reads against a sustained update stream over a fixed key space)
// runs twice on a 3-node cluster: once with storage thresholds so large
// that no flush or compaction ever runs, and once with tiny thresholds so
// the flush daemon churns constantly. With the pre-PR stop-the-world
// maintenance, the second configuration froze every read and apply for the
// duration of each full compaction; with sealed memtables, off-lock builds,
// and incremental rounds, read latency should stay close to the quiet
// baseline while flushes and compactions run by the hundred.
func StorageMaintenance(cfg Config) (Table, error) {
	cfg.fillDefaults()
	value := sim.ValueOfSize(cfg.ValueSize)
	const readers, writers = 8, 4

	run := func(label string, flushBytes int64, maxTables int) ([]string, error) {
		opts := spinOpts(cfg, wal.DeviceMem)
		opts.Nodes = 3
		opts.FlushBytes = flushBytes
		opts.MaxTables = maxTables
		opts.FlushInterval = 10 * time.Millisecond
		sc, err := newSpin(opts)
		if err != nil {
			return nil, err
		}
		defer sc.Stop()
		if err := preloadSpin(sc, cfg.Rows, cfg.ValueSize); err != nil {
			return nil, err
		}

		// Sustained update stream over the preloaded rows: tables overlap,
		// so compactions do real merge work.
		stop := make(chan struct{})
		var wrote int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := sc.NewClient()
				for i := w; ; i += writers {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := c.Put(sim.StridedKey(i%cfg.Rows, cfg.Rows, 8), "c", value); err == nil {
						atomic.AddInt64(&wrote, 1)
					}
				}
			}(w)
		}

		readClients := make([]*core.Client, readers)
		for i := range readClients {
			readClients[i] = sc.NewClient()
		}
		pick := sim.NewKeyPicker(cfg.Rows, 8, 7)
		start := time.Now()
		p := sim.RunClosedLoop(readers, cfg.PointDuration, func(t, i int) error {
			_, _, err := readClients[t].Get(pick.Random(), "c", true)
			if err == core.ErrNotFound {
				return nil
			}
			return err
		})
		elapsed := time.Since(start)
		close(stop)
		wg.Wait()

		var flushes, compacts, tables int64
		for _, id := range sc.Nodes() {
			n, ok := sc.Node(id)
			if !ok {
				continue
			}
			for _, rangeID := range n.Ranges() {
				f, c, tbl, ok := n.StorageStats(rangeID)
				if !ok {
					continue
				}
				flushes += f
				compacts += c
				tables += int64(tbl)
			}
		}
		return []string{
			label,
			tput(float64(atomic.LoadInt64(&wrote)) / elapsed.Seconds()),
			tput(p.Throughput),
			ms(p.AvgLatency),
			ms(p.P95),
			fmt.Sprint(flushes),
			fmt.Sprint(compacts),
			fmt.Sprint(tables),
		}, nil
	}

	table := Table{
		ID:    "Storage-maintenance",
		Title: "strong reads under a sustained update stream, with LSM maintenance off vs churning",
		Columns: []string{"config", "writes/s", "reads/s", "read avg ms", "read p95 ms",
			"flushes", "compactions", "tables"},
		Notes: "maintenance-off uses thresholds nothing reaches (one memtable, never flushed, so nothing to merge); churn flushes\n" +
			"every 64KB, merges every table once the newer ones outweigh the oldest, and merges a size tier past 4 tables.\n" +
			"The reproduction target: read avg/p95 under churn stay near the quiet baseline — flushes and compaction\n" +
			"rounds build SSTables outside the engine lock instead of freezing reads for the duration of each merge.",
	}
	quiet, err := run("maintenance-off", 1<<30, 1<<30)
	if err != nil {
		return Table{}, err
	}
	table.Rows = append(table.Rows, quiet)
	cfg.progress("storage-maintenance: quiet baseline done")
	churn, err := run("churn (64KB flush, 4 tables)", 64<<10, 4)
	if err != nil {
		return Table{}, err
	}
	table.Rows = append(table.Rows, churn)
	cfg.progress("storage-maintenance: churn run done")
	return table, nil
}
