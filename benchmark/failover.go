package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"spinnaker/internal/coord"
)

// Fault schedule of the failover workload, in windows (seconds, in the
// benchmark's own runs) since the fault phase began: the leader of the
// range is crashed at firstKill and every killEvery after it, and restarted
// restartAfter later over the same stores. No crash is made unless the node
// can restart and rejoin before the phase ends.
const (
	firstKill    = 1
	killEvery    = 4
	restartAfter = 2
	rejoinRoom   = 1
	faultTimeout = 10 * time.Second // for a takeover or a rejoin; either takes milliseconds

	failoverRate = 1000 // puts per second over both generators
	maxOpenPuts  = 4096 // puts outstanding before a generator refuses
)

// openPut is one put of the open loop.
type openPut struct {
	due  time.Time
	lag  time.Duration // how late the generator sent it
	done time.Duration // due → acknowledged
	ok   bool
}

// kill is one leader crash and what followed.
type kill struct {
	at       time.Time
	node     string
	takeover time.Duration // crash → a survivor is open leader
	rejoin   time.Duration // restart → the node has committed what the leader had at the restart
	unavail  time.Duration // crash → first acknowledgement of a put due after the crash
}

// openLoop sends failoverRate puts per second for d, on schedule whether or
// not earlier puts have completed, split over one generator per
// connection. Each put is timed from when it was due.
func (r *run) openLoop(d time.Duration) []openPut {
	gens := len(r.conns)
	period := time.Second * time.Duration(gens) / failoverRate
	perGen := int(d / period)
	puts := make([]openPut, gens*perGen)
	// The buffers bound the puts outstanding; a put that finds none is
	// refused and counts as failed.
	bufs := make(chan []byte, maxOpenPuts)
	for i := 0; i < maxOpenPuts; i++ {
		bufs <- append([]byte(nil), r.filler...)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*1000 + int64(g)))
			seq := &r.seqs[g][0]
			for i := 0; i < perGen; i++ {
				p := &puts[g*perGen+i]
				p.due = start.Add(time.Duration(i)*period + time.Duration(g)*period/time.Duration(gens))
				time.Sleep(time.Until(p.due))
				p.lag = time.Since(p.due)
				row := rng.Intn(r.wl.rows)
				*seq++
				id := putID(g, 0, *seq)
				select {
				case buf := <-bufs:
					wg.Add(1)
					go func() {
						defer wg.Done()
						fillValue(buf, row, id)
						sent := time.Now()
						ver, err := r.conns[g].Put(r.keys[row], column, buf)
						p.done = time.Since(p.due)
						if r.tr != nil && r.tr.on.Load() {
							r.tr.record(classOp, opPut, r.tr.newID(), 0, sent, p.due.Add(p.done))
						}
						bufs <- buf
						if err != nil {
							r.failed.Add(1)
							r.audit.failed(row)
							return
						}
						p.ok = true
						r.audit.ack(row, ver, id)
					}()
				default:
					r.failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	sort.Slice(puts, func(i, j int) bool { return puts[i].due.Before(puts[j].due) })
	return puts
}

// openLoopWindows runs the open loop for n windows and returns its puts and
// what each window saw; a put belongs to the window it was due in.
func (r *run) openLoopWindows(n int) ([]openPut, []window) {
	sampled := make(chan []snapshot, 1)
	go func() {
		snaps := []snapshot{takeSnapshot()}
		for w := 1; w <= n; w++ {
			time.Sleep(time.Until(snaps[0].at.Add(time.Duration(w) * r.plan.window)))
			snaps = append(snaps, takeSnapshot())
		}
		sampled <- snaps
	}()
	puts := r.openLoop(time.Duration(n) * r.plan.window)
	snaps := <-sampled
	ws := make([]window, n)
	next := 0
	for w := range ws {
		var lat []uint32
		for ; next < len(puts) && (w == n-1 || puts[next].due.Before(snaps[w+1].at)); next++ {
			lat = append(lat, puts[next].sample())
		}
		ws[w] = newWindow(snaps[w], snaps[w+1], [][]uint32{lat})
	}
	return puts, ws
}

// sample is the put's latency from its due time, as a window sample.
func (p openPut) sample() uint32 {
	if !p.ok || p.done >= failedLatency {
		return failedLatency | putBit
	}
	return uint32(p.done) | putBit
}

// injectFaults crashes and restarts the leader of rangeID on the fault
// schedule for a phase of the given number of windows, and returns what it
// did. It runs beside openLoop.
func (r *run) injectFaults(rangeID uint32, windows int) ([]kill, error) {
	sess := r.b.coord.Connect()
	defer sess.Close()
	start := time.Now()
	var kills []kill
	for at := firstKill; at+restartAfter+rejoinRoom <= windows; at += killEvery {
		time.Sleep(time.Until(start.Add(time.Duration(at) * r.plan.window)))
		leader := r.b.openLeader(sess, rangeID)
		if leader == "" {
			return kills, fmt.Errorf("range %d has no open leader", rangeID)
		}
		k := kill{at: time.Now(), node: leader}
		r.b.crash(leader)
		survivor, err := r.awaitLeader(sess, rangeID)
		if err != nil {
			return kills, err
		}
		k.takeover = time.Since(k.at)

		time.Sleep(time.Until(k.at.Add(restartAfter * r.plan.window)))
		restarted := time.Now()
		target, _ := r.b.node(survivor).ReplicaStats(rangeID)
		if err := r.b.startNode(leader); err != nil {
			return kills, err
		}
		for {
			if st, ok := r.b.node(leader).ReplicaStats(rangeID); ok && st.LastCommitted >= target.LastCommitted {
				break
			}
			if time.Since(restarted) > faultTimeout {
				return kills, fmt.Errorf("restarted node %s did not catch up", leader)
			}
			time.Sleep(time.Millisecond)
		}
		k.rejoin = time.Since(restarted)
		kills = append(kills, k)
	}
	return kills, nil
}

func (r *run) awaitLeader(sess *coord.Session, rangeID uint32) (string, error) {
	deadline := time.Now().Add(faultTimeout)
	for {
		if l := r.b.openLeader(sess, rangeID); l != "" {
			return l, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("range %d has no open leader", rangeID)
		}
		time.Sleep(time.Millisecond)
	}
}

// setUnavailability fills in, for each kill, the time from the crash to
// the first acknowledgement of a put that was due after the crash. puts
// are sorted by due time.
func setUnavailability(kills []kill, puts []openPut) {
	for i := range kills {
		k := &kills[i]
		first := sort.Search(len(puts), func(j int) bool { return !puts[j].due.Before(k.at) })
		for _, p := range puts[first:] {
			if end := p.due.Add(p.done).Sub(k.at); p.ok && (k.unavail == 0 || end < k.unavail) {
				k.unavail = end
			}
		}
	}
}
