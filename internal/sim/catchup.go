package sim

import (
	"errors"
	"fmt"
	"spinnaker/internal/simtime"
	"sync"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/lin"
	"spinnaker/internal/wal"
)

// RejoinOptions configure one truncated-log rejoin scenario: a follower
// crashes, the survivors keep committing until the shared log is truncated
// past the crashed replica's f.cmt, and the node rejoins — which must go
// through the SSTable-shipping catch-up path (§6.1) unless the log-replay
// ablation is set.
type RejoinOptions struct {
	// Seed drives the recorded workload.
	Seed int64
	// Writers is the recorded workload concurrency (default 3).
	Writers int
	// ContendedKeys is the number of linearizability-checked rows
	// (default 5).
	ContendedKeys int
	// PreloadRows is the bulk data loaded before the crash — the state
	// the rejoining node must recover (default 400).
	PreloadRows int
	// ValueBytes sizes the bulk values (default 256).
	ValueBytes int
	// DiskLoss destroys the victim's stable storage with the crash
	// (§6.1 disk failure): the rejoin rebuilds the whole range, so
	// recovery cost scales with the data held, not the downtime.
	DiskLoss bool
	// DisableSnapshot runs the log-replay ablation for comparison.
	DisableSnapshot bool
	// CheckTimeout bounds the linearizability search (default 60s).
	CheckTimeout time.Duration
}

func (o *RejoinOptions) fillDefaults() {
	if o.Writers <= 0 {
		o.Writers = 3
	}
	if o.ContendedKeys <= 0 {
		o.ContendedKeys = 5
	}
	if o.PreloadRows <= 0 {
		o.PreloadRows = 400
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 256
	}
	if o.CheckTimeout <= 0 {
		o.CheckTimeout = 60 * time.Second
	}
}

// RejoinResult reports one rejoin scenario run.
type RejoinResult struct {
	Victim string
	// RejoinTime is restart-to-caught-up: every range the victim serves
	// is back at (or past) the commit point its leader held at restart.
	RejoinTime time.Duration
	// SnapshotCatchups counts the victim's catch-ups that absorbed a
	// snapshot manifest; SnapshotsServed counts manifests served by the
	// surviving leaders. Both are zero under the ablation.
	SnapshotCatchups int64
	SnapshotsServed  int64
	Check            lin.CheckResult
	Ops              int
}

// ErrNeverTruncated reports that the surviving cohorts never truncated the
// log past the victim's commit floor, so the scenario could not force the
// snapshot path (slow flush daemon; rerun or raise the write volume).
var ErrNeverTruncated = errors.New("sim: log never truncated past the victim's cmt")

// RunTruncatedRejoin executes the scenario and checks the concurrent
// workload's history for per-key linearizability.
func RunTruncatedRejoin(opts RejoinOptions) (*RejoinResult, error) {
	opts.fillDefaults()
	sc, err := NewSpinnakerCluster(Options{
		Nodes:        3,
		FaultSeed:    opts.Seed,
		CommitPeriod: 5 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
		// Tiny storage thresholds so flushes, segment rolls, and log
		// truncation all happen within the scenario.
		FlushBytes:             32 << 10,
		SegmentBytes:           64 << 10,
		MaxTables:              6,
		FlushInterval:          2 * time.Millisecond,
		DisableSnapshotCatchup: opts.DisableSnapshot,
	})
	if err != nil {
		return nil, err
	}
	defer sc.Stop()
	if err := sc.WaitReady(30 * time.Second); err != nil {
		return nil, err
	}

	domain := sc.KeyDomain()
	stride := domain / opts.PreloadRows
	if stride < 1 {
		stride = 1
	}
	val := make([]byte, opts.ValueBytes)
	for i := range val {
		val[i] = byte(i)
	}
	putRetryOn := func(c *core.Client, row string) error {
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			if _, err = c.Put(row, "d", val); err == nil {
				return nil
			}
			simtime.Sleep(10 * time.Millisecond)
		}
		return fmt.Errorf("sim: preload put %s: %w", row, err)
	}
	// Parallel preload: a single closed-loop client would spend longer
	// loading than the scenario itself takes.
	const loaders = 8
	var plwg sync.WaitGroup
	plErr := make(chan error, loaders)
	for l := 0; l < loaders; l++ {
		plwg.Add(1)
		go func(l int) {
			defer plwg.Done()
			c := sc.NewClient()
			for i := l; i < opts.PreloadRows; i += loaders {
				if err := putRetryOn(c, sc.Key(i*stride)); err != nil {
					plErr <- err
					return
				}
			}
		}(l)
	}
	plwg.Wait()
	select {
	case err := <-plErr:
		return nil, err
	default:
	}
	filler := sc.NewClient()
	putRetry := func(row string) error { return putRetryOn(filler, row) }

	// The victim is a follower of range 0 (any member node would do: with
	// 3-way replication every node serves every range).
	leader0 := sc.LeaderOf(0)
	var victim string
	for _, id := range sc.Nodes() {
		if id != leader0 {
			victim = id
			break
		}
	}
	res := &RejoinResult{Victim: victim}

	ranges := sc.CurrentLayout().RangeIDs()
	vn, ok := sc.Node(victim)
	if !ok {
		return nil, fmt.Errorf("sim: victim %s not running", victim)
	}
	preCmt := make(map[uint32]wal.LSN, len(ranges))
	for _, r := range ranges {
		if st, ok := vn.ReplicaStats(r); ok {
			preCmt[r] = st.LastCommitted
		}
	}

	// Recorded workload over contended keys, concurrent with the crash
	// and the rejoin.
	rec := lin.NewRecorder()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	keys := make([]string, opts.ContendedKeys)
	for i := range keys {
		keys[i] = sc.Key(i * (domain / opts.ContendedKeys))
	}
	for w := 0; w < opts.Writers; w++ {
		c := sc.NewClient()
		c.SetStrictWrites(true)
		wg.Add(1)
		go func(w int, c *core.Client) {
			defer wg.Done()
			runWriter(c, rec, keys, w, opts.Seed, stop)
		}(w, c)
	}
	bail := func(err error) (*RejoinResult, error) {
		close(stop)
		wg.Wait()
		return nil, err
	}

	if err := sc.CrashNode(victim); err != nil {
		return bail(err)
	}
	if opts.DiskLoss {
		sc.FailDisk(victim)
	}
	rec.Note("rejoin: crash %s (disk loss %v)", victim, opts.DiskLoss)

	// Keep writing until every range's survivors have truncated the log
	// past the victim's commit floor (for disk loss, past zero): the
	// rejoin can then only complete through bulk catch-up.
	truncatedPast := func(r uint32) bool {
		target := preCmt[r]
		if opts.DiskLoss {
			target = 0
		}
		ln, ok := sc.Node(sc.LeaderOf(r))
		return ok && ln.LogTruncated(r) > target
	}
	deadline := simtime.Now().Add(60 * time.Second)
	for i := opts.PreloadRows; ; i++ {
		done := true
		for _, r := range ranges {
			if !truncatedPast(r) {
				done = false
				break
			}
		}
		if done {
			break
		}
		if simtime.Now().After(deadline) {
			return bail(ErrNeverTruncated)
		}
		// Each filler write hits a FRESH row (offset inside the stride
		// gap), still striped across every range: rewriting the preload
		// rows would leave each memtable's latest-cell-per-key footprint
		// flat below FlushBytes and no flush (hence no truncation) would
		// ever trigger.
		row := sc.Key((i%opts.PreloadRows)*stride + 1 + (i/opts.PreloadRows)%(stride-1))
		if err := putRetry(row); err != nil {
			return bail(err)
		}
	}
	rec.Note("rejoin: log truncated past victim on all %d ranges", len(ranges))

	// Rejoin: restart and wait until every range is back at the commit
	// point its leader holds now (later writes keep flowing; catching up
	// to the restart-time point is the recovery the crash forced).
	target := make(map[uint32]wal.LSN, len(ranges))
	for _, r := range ranges {
		if ln, ok := sc.Node(sc.LeaderOf(r)); ok {
			if st, ok := ln.ReplicaStats(r); ok {
				target[r] = st.LastCommitted
			}
		}
	}
	start := simtime.Now()
	if err := sc.RestartNode(victim); err != nil {
		return bail(err)
	}
	vn, _ = sc.Node(victim)
	deadline = simtime.Now().Add(120 * time.Second)
	for _, r := range ranges {
		for {
			st, ok := vn.ReplicaStats(r)
			if ok && st.Role != core.RoleRecovering && st.LastCommitted >= target[r] {
				break
			}
			if simtime.Now().After(deadline) {
				return bail(fmt.Errorf("sim: range %d never caught up (at %s, want %s)",
					r, st.LastCommitted, target[r]))
			}
			simtime.Sleep(2 * time.Millisecond)
		}
	}
	res.RejoinTime = simtime.Since(start)
	rec.Note("rejoin: %s caught up in %v", victim, res.RejoinTime)

	for _, r := range ranges {
		if st, ok := vn.ReplicaStats(r); ok {
			res.SnapshotCatchups += st.SnapshotCatchups
		}
		if ln, ok := sc.Node(sc.LeaderOf(r)); ok && ln.ID() != victim {
			if st, ok := ln.ReplicaStats(r); ok {
				res.SnapshotsServed += st.SnapshotsServed
			}
		}
	}

	// Let the workload observe the recovered cluster, then check.
	simtime.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	res.Check = rec.Check(opts.CheckTimeout)
	res.Ops = res.Check.Ops
	if res.Check.Err != nil {
		return res, fmt.Errorf("sim: seed %d: linearizability check undecided: %w", opts.Seed, res.Check.Err)
	}
	if !res.Check.Linearizable {
		return res, fmt.Errorf("%w: seed %d, key %q\n%s\nhistory:\n%s",
			ErrNotLinearizable, opts.Seed, res.Check.BadKey, res.Check.Detail,
			rec.FormatKey(res.Check.BadKey))
	}
	return res, nil
}
