package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"spinnaker/internal/coord"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Coordination-service paths for a key range (paper §7.2: information
// needed for leader election is stored under /r).
func rangePath(r uint32) string      { return fmt.Sprintf("/ranges/%d", r) }
func candidatesPath(r uint32) string { return rangePath(r) + "/candidates" }
func leaderPath(r uint32) string     { return rangePath(r) + "/leader" }
func epochPath(r uint32) string      { return rangePath(r) + "/epoch" }

// candidatePrefix names this node's candidate znodes so it can clean up its
// own stale entries (Fig 7 line 1) and recognize its own candidacy.
func (r *replica) candidatePrefix() string {
	return fmt.Sprintf("%s/c:%s:", candidatesPath(r.rangeID), r.n.cfg.ID)
}

// electionLoop drives a replica's leadership state for the life of the
// node: follow the current leader if one exists, run the election protocol
// of Figure 7 when there is none, and watch for the ephemeral leader znode
// to disappear (the coordination service deletes it when the leader's
// session dies, triggering a new election).
func (r *replica) electionLoop() {
	sess := r.n.coordSess
	if err := sess.EnsurePath(candidatesPath(r.rangeID)); err != nil {
		return
	}
	_, _ = sess.Create(epochPath(r.rangeID), encodeEpoch(0), 0)

	for !r.exiting() {
		leaderWatch, err := sess.Watch(leaderPath(r.rangeID))
		if err != nil {
			return // session gone; node is shutting down
		}
		data, ver, err := sess.GetVersion(leaderPath(r.rangeID))
		switch {
		case err == nil:
			leader := string(data)
			if leader == r.n.cfg.ID {
				// We hold the leader znode (re-found after a
				// watch fired for an unrelated reason).
				r.mu.Lock()
				isLeader := r.role == RoleLeader
				r.mu.Unlock()
				if !isLeader {
					// The znode carries our id but we are not
					// leading: either a previous incarnation's
					// entry (its session is dead; the znode
					// just has not expired yet) or our own
					// claim orphaned by a mid-takeover
					// demotion. Waiting it out deadlocks the
					// cohort — every other member sees a live
					// leader znode and follows it. Delete it —
					// version-guarded, so a rival's claim
					// created in between is never the one
					// removed — and re-elect.
					_ = sess.DeleteVersion(leaderPath(r.rangeID), ver)
					continue
				}
			} else {
				r.becomeFollower(leader)
			}
			// Block until the leader znode changes (deleted on
			// leader death), then loop.
			r.waitEvent(leaderWatch)
		case errors.Is(err, coord.ErrNoNode):
			// No leader: run the election protocol (Fig 7). The
			// watch from above is spent by our own candidate
			// traffic at worst; elect() manages its own waits.
			r.runElection()
		default:
			return // session closed
		}
	}
}

// waitEvent blocks on a watch channel until it fires, the node stops, or
// the replica retires.
func (r *replica) waitEvent(ch <-chan coord.Event) {
	select {
	case <-ch:
	case <-r.n.stopCh:
	case <-r.stopCh:
	case <-r.electionNudge:
	}
}

// becomeFollower records the leadership and, if this replica is behind,
// starts catch-up.
func (r *replica) becomeFollower(leader string) {
	r.mu.Lock()
	wasLeader := r.role == RoleLeader
	prev := r.leaderID
	if wasLeader && leader != r.n.cfg.ID {
		r.demoteLocked(leader)
	}
	r.leaderID = leader
	if r.role == RoleRecovering {
		r.mu.Unlock()
		// Recovering nodes must complete the catch-up phase before
		// serving (§6.1); the loop flips the role to follower.
		r.runCatchupLoop()
		return
	}
	r.mu.Unlock()
	if prev != leader {
		// New leader after a takeover: our pending writes may need
		// resolution; catch-up is idempotent and cheap when current.
		// Through goLoop: Stop closes the log only after this loop has
		// made its last append.
		r.n.goLoop(r.runCatchupLoop)
	}
}

// runElection is Figure 7. Leader election is triggered whenever a cohort's
// leader has failed or after local recovery on a restart.
func (r *replica) runElection() {
	sess := r.n.coordSess

	r.mu.Lock()
	mustPull := r.mustPull
	abstain := r.abstain
	r.abstain = false
	r.mu.Unlock()
	if mustPull {
		// A fresh replica of a split-created range holds none of the
		// range's data yet; standing for election could elect an empty
		// leader and lose the moved rows. Pull from the origin first.
		r.n.nudgeCatchup(r)
		select {
		case <-time.After(r.n.cfg.ElectionTimeout):
		case <-r.n.stopCh:
		case <-r.stopCh:
		case <-r.electionNudge:
		}
		return
	}
	if abstain {
		// Leadership transfer: sit out one round so another member can
		// win; if nobody does, the next pass participates normally.
		select {
		case <-time.After(2 * r.n.cfg.ElectionTimeout):
		case <-r.n.stopCh:
		case <-r.stopCh:
		}
		return
	}

	// Line 1: clean up our stale state from previous rounds.
	kids, err := sess.Children(candidatesPath(r.rangeID))
	if err != nil {
		return
	}
	for _, kid := range kids {
		if strings.HasPrefix(kid.Name, "c:"+r.n.cfg.ID+":") {
			_ = sess.Delete(candidatesPath(r.rangeID) + "/" + kid.Name)
		}
	}

	r.mu.Lock()
	r.role = RoleCandidate
	nLst := r.lastLSN
	r.mu.Unlock()

	// Lines 3-4: announce our candidacy in a sequential ephemeral znode
	// carrying our last LSN, stamped with the epoch we observe. The stamp
	// scopes the round: a node that has not yet noticed the current
	// leader's death still has its candidacy from an EARLIER round parked
	// under /candidates (each node cleans up only its own entries, line
	// 1), and that entry carries an ancient n.lst. Counting it toward the
	// quorum would let this round conclude before the live nodes
	// re-register — electing a laggard over a node that holds committed
	// writes, which are then logically truncated (lost). Only candidacies
	// at the newest observed epoch may count.
	myEpoch := r.n.readEpochZnode(r.rangeID)
	myPath, err := sess.Create(r.candidatePrefix(), encodeCandidacy(myEpoch, nLst),
		coord.FlagEphemeral|coord.FlagSequential)
	if err != nil {
		return
	}
	myName := myPath[strings.LastIndex(myPath, "/")+1:]

	for !r.exiting() {
		// Line 5: set a watch and wait for a majority of current-round
		// candidacies.
		watch, err := sess.WatchChildren(candidatesPath(r.rangeID))
		if err != nil {
			return
		}
		kids, err := sess.Children(candidatesPath(r.rangeID))
		if err != nil {
			return
		}
		maxObs := myEpoch
		for _, kid := range kids {
			if e, _ := decodeCandidacy(kid.Data); e > maxObs {
				maxObs = e
			}
		}
		if maxObs > myEpoch {
			// A newer round started (a takeover consumed an epoch and
			// failed, or we raced a bump): our entry no longer counts.
			// Re-register at the newer round with our current state.
			_ = sess.Delete(candidatesPath(r.rangeID) + "/" + myName)
			r.mu.Lock()
			nLst = r.lastLSN
			r.mu.Unlock()
			myEpoch = maxObs
			if e := r.n.readEpochZnode(r.rangeID); e > myEpoch {
				myEpoch = e
			}
			myPath, err = sess.Create(r.candidatePrefix(), encodeCandidacy(myEpoch, nLst),
				coord.FlagEphemeral|coord.FlagSequential)
			if err != nil {
				return
			}
			myName = myPath[strings.LastIndex(myPath, "/")+1:]
			continue
		}
		electorate := kids[:0:0]
		for _, kid := range kids {
			if e, _ := decodeCandidacy(kid.Data); e == maxObs {
				electorate = append(electorate, kid)
			}
		}
		r.mu.Lock()
		quorum := r.quorum
		home := r.home
		r.mu.Unlock()
		if len(electorate) < quorum {
			select {
			case <-watch:
				continue
			case <-r.n.stopCh:
				return
			case <-r.stopCh:
				return
			case <-time.After(r.n.cfg.ElectionTimeout):
				continue
			}
		}

		// Line 6: the new leader is the current-round candidate with the
		// max n.lst. Ties prefer the layout's home node (so leadership
		// lands on the preferred placement after a rebalance), then fall
		// back to znode sequence numbers. Every node evaluates the same
		// rule over the same candidacy data, so the choice agrees; in
		// the rare window where nodes disagree on the home (a layout
		// adoption in flight), the leader znode create arbitrates.
		winner := electorate[0]
		_, winnerLSN := decodeCandidacy(electorate[0].Data)
		for _, kid := range electorate[1:] {
			_, lsn := decodeCandidacy(kid.Data)
			switch {
			case lsn > winnerLSN:
				winner, winnerLSN = kid, lsn
			case lsn == winnerLSN && candidateBeats(kid, winner, home):
				winner, winnerLSN = kid, lsn
			}
		}

		if winner.Name == myName {
			// Lines 7-9: claim leadership and run takeover.
			_, err := sess.Create(leaderPath(r.rangeID), []byte(r.n.cfg.ID), coord.FlagEphemeral)
			if err != nil && !errors.Is(err, coord.ErrNodeExists) {
				return
			}
			if err == nil {
				if r.takeover() {
					return // leading; electionLoop watches our znode
				}
				// Takeover failed (lost quorum); release the
				// claim and retry.
				_ = sess.Delete(leaderPath(r.rangeID))
				continue
			}
			// Someone else holds /leader; fall through to learn it.
		}

		// Line 11: read /r/leader to learn the new leader.
		leaderWatch, err := sess.Watch(leaderPath(r.rangeID))
		if err != nil {
			return
		}
		if data, err := sess.Get(leaderPath(r.rangeID)); err == nil {
			if string(data) != r.n.cfg.ID {
				r.becomeFollower(string(data))
			}
			return
		}
		// Leader znode still absent: wait for it, a candidate change,
		// or a timeout (the winner may have died mid-takeover).
		select {
		case <-leaderWatch:
		case <-watch:
		case <-time.After(r.n.cfg.ElectionTimeout):
		case <-r.n.stopCh:
			return
		case <-r.stopCh:
			return
		}
	}
}

// candidateNode extracts the node id from a candidate znode name
// ("c:<node>:<seq digits>").
func candidateNode(name string) string {
	if !strings.HasPrefix(name, "c:") {
		return ""
	}
	i := strings.LastIndex(name, ":")
	if i < 2 {
		return ""
	}
	return name[2:i]
}

// candidateBeats breaks an equal-lst tie between candidates a and b: the
// layout's home node wins, else the lower znode sequence (Fig 7 line 6).
func candidateBeats(a, b coord.ChildInfo, home string) bool {
	aHome := candidateNode(a.Name) == home
	bHome := candidateNode(b.Name) == home
	if aHome != bHome {
		return aHome
	}
	return a.Seq < b.Seq
}

// takeover is Figure 6: bring at least one follower up to our last
// committed LSN, re-propose the unresolved writes in (l.cmt, l.lst], and
// open the cohort for writes under a fresh epoch. Returns false if quorum
// could not be assembled (the claim should be released).
func (r *replica) takeover() bool {
	// Allocate the next epoch through the coordination service (App. B:
	// "a new epoch number is stored in Zookeeper before the leader
	// accepts any new writes"). A split-created range starts its epoch
	// znode at zero while its pulled data carries the origin range's
	// epochs, so keep bumping until the new epoch exceeds every LSN we
	// hold — LSN monotonicity across leaderships depends on it.
	r.mu.Lock()
	lLst := r.lastLSN
	r.mu.Unlock()
	newEpoch, err := r.n.bumpEpoch(r.rangeID)
	for err == nil && newEpoch <= lLst.Epoch() {
		newEpoch, err = r.n.bumpEpoch(r.rangeID)
	}
	if err != nil {
		return false
	}

	r.mu.Lock()
	r.role = RoleLeader
	r.open = false
	r.leaderID = r.n.cfg.ID
	r.dropProposalsLocked() // a new term starts with no batch outstanding
	lCmt := r.lastCommitted
	lLst = r.lastLSN
	peers := r.peers
	r.mu.Unlock()

	// Lines 3-7: catch up each follower to l.cmt, in parallel; line 8:
	// wait until at least one is caught up. (With 3-way replication one
	// success gives the quorum of 2, counting ourselves.)
	results := make(chan bool, len(peers))
	for _, peer := range peers {
		go func(peer string) { results <- r.syncFollower(peer, lCmt, lLst) }(peer)
	}
	deadline := time.After(r.n.cfg.TakeoverTimeout)
	caughtUp := 0
	for i := 0; i < len(peers) && caughtUp == 0; i++ {
		select {
		case ok := <-results:
			if ok {
				caughtUp++
			}
		case <-deadline:
			i = len(peers)
		case <-r.n.stopCh:
			return false
		}
	}
	if caughtUp == 0 {
		r.mu.Lock()
		r.role = RoleCandidate
		r.mu.Unlock()
		return false
	}

	// Line 9: re-propose the unresolved writes in (l.cmt, l.lst] and
	// commit them through the normal replication protocol. They are
	// exactly our pending queue (populated by local recovery or by our
	// time as a follower); they are already in our durable log. Any acks
	// gathered under an earlier leadership are discarded first: they no
	// longer prove durability (a peer may have logically truncated writes
	// it once acked), so the re-proposals must earn a fresh quorum.
	r.queue.resetAcks()
	var reprops []proposeRec
	for _, lsn := range r.queue.snapshotOrder() {
		p, ok := r.queue.get(lsn)
		if !ok || lsn <= lCmt {
			continue
		}
		r.queue.markForced(lsn) // it is in our durable log
		reprops = append(reprops, proposeRec{LSN: lsn, Op: p.op})
	}
	if len(reprops) > 0 {
		r.reproposeRecs(reprops)
	}
	// Wait for the re-proposals to commit.
	reproposeDeadline := time.Now().Add(r.n.cfg.TakeoverTimeout)
	for {
		r.tryCommit()
		r.mu.Lock()
		done := r.lastCommitted >= lLst || r.queue.len() == 0
		r.mu.Unlock()
		if done {
			break
		}
		if time.Now().After(reproposeDeadline) {
			r.mu.Lock()
			r.role = RoleCandidate
			r.mu.Unlock()
			return false
		}
		time.Sleep(time.Millisecond)
	}

	// Line 10: open the cohort for writes, with LSNs above anything
	// previously used (epoch bump + continuing sequence numbers, App. B).
	r.mu.Lock()
	if r.role != RoleLeader || r.retired {
		// Demoted mid-takeover: a rival's late takeover sync (it lost
		// the znode race after sending) or a layout change that retired
		// us. Opening now would leave a non-leader serving strong
		// reads; fail instead, release the claim, and re-elect.
		r.mu.Unlock()
		return false
	}
	r.epoch = newEpoch
	if s := r.lastLSN.Seq(); s >= r.nextSeq {
		r.nextSeq = s + 1
	}
	r.open = true
	r.mu.Unlock()
	// An open leader is by definition caught up; publish the marker the
	// reconfiguration executor waits on.
	r.n.markCurrent(r.rangeID)
	r.m.elections.Inc()
	return true
}

// syncFollower runs lines 4-6 of Figure 6 against one follower: learn its
// f.cmt, send the committed writes in (f.cmt, l.cmt] plus a commit message.
// Reports whether the follower confirmed catching up to l.cmt.
func (r *replica) syncFollower(peer string, lCmt, lLst wal.LSN) bool {
	resp, err := r.n.call(peer, transport.Message{Kind: MsgStateReq, Cohort: r.rangeID})
	if err != nil {
		return false
	}
	fCmt, err := decodeLSN(resp.Payload)
	if err != nil {
		return false
	}

	r.mu.Lock()
	// Present covers the follower's whole possible ambiguous range so it
	// can logically truncate its dead branches in one step. EntriesSince
	// is complete for fCmt — deletes included — because the follower's
	// advertised cmt never drops below its durable floor, and no engine
	// in the cohort compacts tombstones above the minimum of those floors
	// (the tombstone-GC watermark).
	present := r.logLSNsInRangeLocked(fCmt, lLst)
	entries := r.engine.EntriesSince(fCmt)
	r.mu.Unlock()

	sync := catchupResp{Status: StatusOK, Cmt: lCmt, Present: present, Entries: entries}
	resp, err = r.n.call(peer, transport.Message{
		Kind: MsgTakeover, Cohort: r.rangeID, Payload: encodeCatchupResp(sync),
	})
	if err != nil {
		return false
	}
	theirCmt, err := decodeLSN(resp.Payload)
	if err != nil {
		return false
	}
	return theirCmt >= lCmt
}

// logLSNsInRangeLocked lists our durable write LSNs in (after, through];
// callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) logLSNsInRangeLocked(after, through wal.LSN) []wal.LSN {
	var out []wal.LSN
	_ = r.n.log.ScanCohort(r.rangeID, func(rec wal.Record) error {
		if rec.Type == wal.RecWrite && rec.LSN > after && rec.LSN <= through &&
			!r.skipped.Contains(rec.LSN) {
			out = append(out, rec.LSN)
		}
		return nil
	})
	return out
}

// encodeCandidacy serializes a candidate znode's payload (Fig 7 line 4):
// the epoch the candidate observed when registering — which scopes the
// election round — and its n.lst.
func encodeCandidacy(epoch uint32, l wal.LSN) []byte {
	return []byte(strconv.FormatUint(uint64(epoch), 10) + ":" + strconv.FormatUint(uint64(l), 10))
}

func decodeCandidacy(b []byte) (uint32, wal.LSN) {
	s := string(b)
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0
	}
	e, err := strconv.ParseUint(s[:i], 10, 32)
	if err != nil {
		return 0, 0
	}
	v, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return 0, 0
	}
	return uint32(e), wal.LSN(v)
}

func encodeEpoch(e uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], e)
	return buf[:]
}

func decodeEpoch(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
