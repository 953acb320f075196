package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/sim"
	"spinnaker/internal/wal"
)

// AblationGroupCommit quantifies the group-commit optimization the paper
// inherits from [13] (§5: "group commit is also used to improve logging
// performance"): with it off, every write forces the device individually.
func AblationGroupCommit(cfg Config) (Table, error) {
	cfg.fillDefaults()
	value := sim.ValueOfSize(cfg.ValueSize)
	const threads = 32
	keySpace := cfg.Rows * 50

	run := func(disable bool) (sim.LoadPoint, float64, error) {
		opts := spinOpts(cfg, wal.DeviceHDD)
		opts.DisableGroupCommit = disable
		sc, err := newSpin(opts)
		if err != nil {
			return sim.LoadPoint{}, 0, err
		}
		defer sc.Stop()
		clients := make([]*core.Client, threads)
		for i := range clients {
			clients[i] = sc.NewClient()
		}
		point := sim.RunClosedLoop(threads, cfg.PointDuration, func(t, i int) error {
			_, err := clients[t].Put(sim.StridedKey(t*keySpace/threads+i, keySpace, 8), "c", value)
			return err
		})
		// Forces per committed write, summed over the cluster's logs.
		var appends, forces int64
		for _, id := range sc.Nodes() {
			if n, ok := sc.Node(id); ok {
				a, f := n.LogStats()
				appends, forces = appends+a, forces+f
			}
		}
		perWrite := 0.0
		if point.Throughput > 0 && appends > 0 {
			perWrite = float64(forces) / (point.Throughput * cfg.PointDuration.Seconds())
		}
		return point, perWrite, nil
	}

	on, onForces, err := run(false)
	if err != nil {
		return Table{}, err
	}
	cfg.progress("ablation-groupcommit: group commit on done")
	off, offForces, err := run(true)
	if err != nil {
		return Table{}, err
	}
	cfg.progress("ablation-groupcommit: group commit off done")

	return Table{
		ID:      "Ablation: group commit",
		Title:   fmt.Sprintf("write throughput with %d threads (4KB values, hdd log)", threads),
		Columns: []string{"group commit", "req/s", "avg ms", "device forces/write"},
		Rows: [][]string{
			{"on", tput(on.Throughput), ms(on.AvgLatency), fmt.Sprintf("%.2f", onForces)},
			{"off", tput(off.Throughput), ms(off.AvgLatency), fmt.Sprintf("%.2f", offForces)},
		},
		Notes: "group commit batches concurrent forces: higher throughput, fewer device forces per write",
	}, nil
}

// measureStaleness writes generations and measures how long timeline reads
// take to converge on every replica (the §5 staleness bound).
func measureStaleness(sc *sim.SpinnakerCluster, rounds int) (time.Duration, error) {
	writer := sc.NewClient()
	reader := sc.NewClient()
	var worst time.Duration
	for gen := 0; gen < rounds; gen++ {
		val := []byte(fmt.Sprintf("gen-%04d", gen))
		if _, err := writer.Put(sc.Key(1), "c", val); err != nil {
			return 0, err
		}
		wrote := time.Now()
		fresh := 0
		for fresh < 12 {
			got, _, err := reader.Get(sc.Key(1), "c", false)
			if err == nil && string(got) == string(val) {
				fresh++
			} else {
				fresh = 0
				time.Sleep(100 * time.Microsecond)
			}
			if time.Since(wrote) > 30*time.Second {
				return 0, fmt.Errorf("bench: timeline reads never converged")
			}
		}
		if lag := time.Since(wrote); lag > worst {
			worst = lag
		}
	}
	return worst, nil
}

// AblationStaleness shows follower staleness shrinking with the commit
// period (§5: "the staleness of followers can be reduced by decreasing the
// commit period").
func AblationStaleness(cfg Config) (Table, error) {
	cfg.fillDefaults()
	table := Table{
		ID:      "Ablation: commit period vs staleness",
		Title:   "worst observed timeline-read staleness vs commit period",
		Columns: []string{"commit period", "worst staleness"},
		Notes:   "staleness bounded by ~one commit period",
	}
	for _, period := range []time.Duration{100 * time.Millisecond, 25 * time.Millisecond, 5 * time.Millisecond} {
		opts := spinOpts(cfg, wal.DeviceInstant)
		opts.Nodes = 3
		opts.CommitPeriod = period
		sc, err := newSpin(opts)
		if err != nil {
			return Table{}, err
		}
		worst, err := measureStaleness(sc, 10)
		sc.Stop()
		if err != nil {
			return Table{}, err
		}
		table.Rows = append(table.Rows, []string{period.String(), worst.Round(time.Millisecond).String()})
		cfg.progress("ablation-staleness: period=%v done", period)
	}
	return table, nil
}

// AblationPiggyback evaluates App. D.1's suggestion: piggy-backing commit
// information on propose messages keeps followers nearly current even with
// a long commit period, for free.
func AblationPiggyback(cfg Config) (Table, error) {
	cfg.fillDefaults()
	table := Table{
		ID:      "Ablation: piggybacked commits",
		Title:   "timeline staleness under steady writes, 500ms commit period",
		Columns: []string{"piggyback", "worst staleness"},
		Notes:   "piggybacking makes staleness track write inter-arrival instead of the commit period",
	}
	for _, piggy := range []bool{false, true} {
		opts := spinOpts(cfg, wal.DeviceInstant)
		opts.Nodes = 3
		opts.CommitPeriod = 500 * time.Millisecond
		opts.PiggybackCommits = piggy
		sc, err := newSpin(opts)
		if err != nil {
			return Table{}, err
		}
		// Steady background writes so proposes (the piggyback carrier)
		// keep flowing.
		stop := make(chan struct{})
		go func() {
			c := sc.NewClient()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = c.Put(sc.Key(100+i%100), "c", []byte("bg"))
				time.Sleep(time.Millisecond)
			}
		}()
		worst, err := measureStaleness(sc, 6)
		close(stop)
		sc.Stop()
		if err != nil {
			return Table{}, err
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(piggy), worst.Round(time.Millisecond).String(),
		})
		cfg.progress("ablation-piggyback: piggy=%v done", piggy)
	}
	return table, nil
}

// AblationProposalBatching quantifies proposal batching against the paper's
// one-propose-one-ack-per-write message pattern ("Practical Experience
// Report: The Performance of Paxos in the Cloud" identifies batching and
// pipelining as the dominant throughput levers for cloud Paxos): with
// batching on, the leader coalesces concurrently sequenced writes into one
// propose batch per peer and followers reply with one cumulative ack per
// batch, so per-message overhead is paid per batch instead of per write.
// With it off the same pipeline sends every write in a message of its own,
// so the ablation isolates messages, frames and acks per write.
//
// The experiment runs pipelined writers (each closed-loop iteration is a
// Batch of pipeWindow puts — the workload batching exists for) on the
// main-memory log (App. D.6.2): with a 50µs force, protocol overhead —
// not the device — is the bottleneck, which is the regime where batching
// matters (on slow logs, group commit already amortizes the device and
// both modes converge). A small per-message delivery cost models the
// receive-path CPU a real transport pays per message. Each point reports
// the median of three trials; the simulation is scheduler-noisy at high
// thread counts on small hosts.
func AblationProposalBatching(cfg Config) (Table, error) {
	cfg.fillDefaults()
	// Small values: this ablation measures protocol overhead (messages,
	// locks, forces, acks per write), not payload memcpy; large values
	// push a one-core host into client-timeout retry storms that swamp
	// the comparison in both modes.
	value := sim.ValueOfSize(256)
	keySpace := cfg.Rows * 50
	const (
		trials     = 3
		pipeWindow = 8 // writes in flight per writer
	)

	run := func(disable bool, threads int) (sim.LoadPoint, error) {
		// Fresh cluster per trial; GC first so one trial's garbage (4KB
		// values at thousands of ops) doesn't distort the next.
		runtime.GC()
		opts := spinOpts(cfg, wal.DeviceMem)
		opts.Nodes = 3 // concentrate writers on few cohorts
		opts.MessageCost = 5 * time.Microsecond
		// Deep pipelines mean tens of writes legitimately in flight;
		// a long commit period keeps the loss-recovery retransmission
		// path (2 commit periods) from re-proposing writes that are
		// simply queued, which would otherwise dominate both modes.
		opts.CommitPeriod = 100 * time.Millisecond
		opts.DisableProposalBatching = disable
		sc, err := newSpin(opts)
		if err != nil {
			return sim.LoadPoint{}, err
		}
		defer sc.Stop()
		clients := make([]*core.Client, threads)
		for i := range clients {
			clients[i] = sc.NewClient()
		}
		op := func(t, i int) error {
			b := clients[t].NewBatch()
			for w := 0; w < pipeWindow; w++ {
				b.Put(sim.StridedKey((t*keySpace/threads+i*pipeWindow+w)%keySpace, keySpace, 8), "c", value)
			}
			_, err := b.Run()
			return err
		}
		// Warm up before measuring: first writes pay for elections having
		// just settled, cold memtables, and scheduler ramp-up.
		sim.RunClosedLoop(threads, cfg.PointDuration/2, op)
		point := sim.RunClosedLoop(threads, cfg.PointDuration, op)
		point.Throughput *= pipeWindow // ops are batches of pipeWindow puts
		return point, nil
	}

	median := func(disable bool, threads int) (sim.LoadPoint, error) {
		points := make([]sim.LoadPoint, 0, trials)
		for i := 0; i < trials; i++ {
			p, err := run(disable, threads)
			if err != nil {
				return sim.LoadPoint{}, err
			}
			points = append(points, p)
		}
		sort.Slice(points, func(i, j int) bool { return points[i].Throughput < points[j].Throughput })
		return points[trials/2], nil
	}

	table := Table{
		ID:      "Ablation: proposal batching",
		Title:   "write throughput, batched vs one write per propose message (256B values, mem log, 8-deep pipelined writers, median of 3)",
		Columns: []string{"writers", "batched req/s", "unbatched req/s", "batched avg ms", "unbatched avg ms"},
		Notes:   "batching amortizes per-message overhead (sends, frames, acks); avg ms is per 8-write pipelined burst",
	}
	for _, threads := range []int{1, 4, 16, 64} {
		batched, err := median(false, threads)
		if err != nil {
			return Table{}, err
		}
		unbatched, err := median(true, threads)
		if err != nil {
			return Table{}, err
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(threads),
			tput(batched.Throughput), tput(unbatched.Throughput),
			ms(batched.AvgLatency), ms(unbatched.AvgLatency),
		})
		cfg.progress("ablation-batching: %d writers done", threads)
	}
	return table, nil
}

// AblationParallelPropose isolates the Figure 4 design choice of forcing
// the leader's log *in parallel* with sending propose messages: the
// sequential variant adds roughly one log-force latency to every write.
func AblationParallelPropose(cfg Config) (Table, error) {
	cfg.fillDefaults()
	value := sim.ValueOfSize(cfg.ValueSize)
	const threads = 8
	keySpace := cfg.Rows * 50

	table := Table{
		ID:      "Ablation: parallel log force + propose",
		Title:   fmt.Sprintf("write latency with %d threads (4KB values, hdd log)", threads),
		Columns: []string{"mode", "req/s", "avg ms"},
		Notes:   "Fig 4 overlaps the leader force with the follower round trip; serializing them adds ~a force latency",
	}
	for _, sequential := range []bool{false, true} {
		opts := spinOpts(cfg, wal.DeviceHDD)
		opts.SequentialPropose = sequential
		sc, err := newSpin(opts)
		if err != nil {
			return Table{}, err
		}
		clients := make([]*core.Client, threads)
		for i := range clients {
			clients[i] = sc.NewClient()
		}
		point := sim.RunClosedLoop(threads, cfg.PointDuration, func(t, i int) error {
			_, err := clients[t].Put(sim.StridedKey(t*keySpace/threads+i, keySpace, 8), "c", value)
			return err
		})
		sc.Stop()
		mode := "parallel (paper)"
		if sequential {
			mode = "sequential"
		}
		table.Rows = append(table.Rows, []string{mode, tput(point.Throughput), ms(point.AvgLatency)})
		cfg.progress("ablation-parallelpropose: sequential=%v done", sequential)
	}
	return table, nil
}
