package core

// phase is where a replica stands in the paper's sequence: local recovery,
// catch-up (§6.1), election (Fig 7), takeover (Fig 6), then leading or
// following. ARCHITECTURE.md Flow 2 has the transition table.
type phase uint8

const (
	phaseRecovering phase = iota // not synced with the current term: may hold dead branches (§6.1.1)
	phaseSeeding                 // split-created, holds none of its range's data yet
	phaseFollowing               // synced with the leader it follows
	phaseGapped                  // following, but a propose showed a sequence gap
	phaseCandidate               // standing in an election (Fig 7)
	phaseTakingOver              // holds the leader znode, not yet open (Fig 6)
	phaseLeading                 // open for writes and strong reads (Fig 6 line 10)
	phaseRetired                 // no longer a cohort member; final
)

// lifecycle is a replica's phase plus the one bit orthogonal to it, abstain
// (sit out the next election round after a step-down). It is guarded by
// replica.mu and touched only in this file: the rest of the package moves
// it through the transitions and asks it through the predicates below.
type lifecycle struct {
	phase   phase
	abstain bool
}

// moveLocked is every transition's check: it moves to phase to if the
// phase is one of from, and otherwise refuses, changing nothing.
//
//spinnaker:locked(mu)
func (r *replica) moveLocked(to phase, from ...phase) bool {
	for _, f := range from {
		if r.lc.phase == f {
			r.lc.phase = to
			return true
		}
	}
	return false
}

// recoverLocked ends local recovery or a layout add; a replica of a
// split-created range with no state yet seeds from its origin first.
//
//spinnaker:locked(mu)
func (r *replica) recoverLocked(seeding bool) bool {
	if seeding {
		return r.moveLocked(phaseSeeding, phaseRecovering)
	}
	return r.moveLocked(phaseRecovering, phaseRecovering)
}

// syncedLocked records a successful catch-up, split pull or takeover sync
// with leader ("" for a pull from the origin range): the paths that
// truncate dead branches, and so the only ones into Following. A sync with
// a leader other than the one since learned is refused.
//
//spinnaker:locked(mu)
func (r *replica) syncedLocked(leader string) bool {
	if leader != "" && r.leaderID != "" && r.leaderID != leader ||
		!r.moveLocked(phaseFollowing, phaseRecovering, phaseSeeding, phaseGapped, phaseFollowing) {
		return false
	}
	if leader != "" {
		r.leaderID = leader
	}
	return true
}

//spinnaker:locked(mu)
func (r *replica) gapLocked() bool { return r.moveLocked(phaseGapped, phaseFollowing) }

// followLocked records that leader leads the cohort. A replica follows only
// a leader whose term it has synced with, so a leader, a candidate, or a
// follower of another leader becomes Recovering until a catch-up or the
// takeover sync succeeds. It reports whether the replica awaits catch-up.
//
//spinnaker:locked(mu)
func (r *replica) followLocked(leader string) bool {
	switch {
	case r.lc.phase == phaseRetired:
		return false
	case r.isLeaderLocked():
		r.demoteLocked(leader)
	case r.lc.phase == phaseCandidate || leader != r.leaderID:
		r.moveLocked(phaseRecovering, phaseCandidate, phaseFollowing, phaseGapped)
	}
	r.leaderID = leader
	return r.awaitsSyncLocked()
}

//spinnaker:locked(mu)
func (r *replica) standLocked() bool {
	return r.moveLocked(phaseCandidate, phaseRecovering, phaseFollowing, phaseGapped, phaseCandidate)
}

// claimLocked starts the takeover of a candidate that holds the leader znode.
//
//spinnaker:locked(mu)
func (r *replica) claimLocked() bool {
	if !r.moveLocked(phaseTakingOver, phaseCandidate) {
		return false
	}
	r.leaderID = r.n.cfg.ID
	return true
}

//spinnaker:locked(mu)
func (r *replica) takeoverFailedLocked() bool { return r.moveLocked(phaseCandidate, phaseTakingOver) }

// openLocked opens the cohort (Fig 6 line 10). A replica demoted or retired
// mid-takeover is refused: it would serve strong reads without leading.
//
//spinnaker:locked(mu)
func (r *replica) openLocked() bool { return r.moveLocked(phaseLeading, phaseTakingOver) }

// demoteLocked turns a (stale) leader into a Recovering replica that follows
// newLeader, failing any writes still waiting for quorum.
//
//spinnaker:locked(mu)
func (r *replica) demoteLocked(newLeader string) bool {
	if !r.moveLocked(phaseRecovering, phaseTakingOver, phaseLeading) {
		return false
	}
	r.leaderID = newLeader
	// Wake the election loop: it may be blocked watching our own leader
	// znode (which will never change by itself). On waking it finds the
	// znode held-but-not-led and deletes it so a real election can run;
	// without the nudge the whole cohort waits on the orphan forever.
	select {
	case r.electionNudge <- struct{}{}:
	default:
	}
	// Drop any proposals still waiting in the batcher: the new leader
	// owns the replication stream now. The window re-arms with them, so a
	// batch left outstanding here cannot hold back a later term's first
	// write.
	r.dropProposalsLocked()
	// Pending writes keep their places in the queue — they are in our
	// durable log and may yet be committed by the new leader's
	// re-proposals; catch-up resolves them. Their waiting clients,
	// however, must not hang.
	for _, lsn := range r.queue.snapshotOrder() {
		if p, ok := r.queue.get(lsn); ok {
			p.finish(writeOutcome{status: StatusAmbiguous, detail: "leadership lost mid-replication"})
		}
	}
	return true
}

// stepDownLocked demotes a leader for a leadership transfer; it sits out
// the next election round.
//
//spinnaker:locked(mu)
func (r *replica) stepDownLocked() bool {
	if !r.demoteLocked("") {
		return false
	}
	r.lc.abstain = true
	return true
}

//spinnaker:locked(mu)
func (r *replica) takeAbstainLocked() bool {
	a := r.lc.abstain
	r.lc.abstain = false
	return a
}

//spinnaker:locked(mu)
func (r *replica) retireLocked() bool {
	if r.lc.phase == phaseRetired {
		return false
	}
	r.lc.phase, r.leaderID = phaseRetired, ""
	return true
}

// isLeaderLocked: open or still taking over; serves catch-up, split pulls,
// commit messages and the tombstone-GC watermark.
//
//spinnaker:locked(mu)
func (r *replica) isLeaderLocked() bool {
	return r.lc.phase == phaseTakingOver || r.lc.phase == phaseLeading
}

// mayServeStrongLocked: open, so it takes writes and serves strong reads.
//
//spinnaker:locked(mu)
func (r *replica) mayServeStrongLocked() bool { return r.lc.phase == phaseLeading }

// mayServeTimelineLocked: the engine holds a committed prefix of the range.
//
//spinnaker:locked(mu)
func (r *replica) mayServeTimelineLocked() bool {
	return !r.awaitsSyncLocked() && r.lc.phase != phaseRetired
}

// mayAppendLocked: onProposeBatch may log its leader's proposes.
//
//spinnaker:locked(mu)
func (r *replica) mayAppendLocked() bool {
	return r.lc.phase == phaseFollowing || r.lc.phase == phaseGapped
}

// mayAdvanceCommitLocked: a commit message may advance the commit point.
//
//spinnaker:locked(mu)
func (r *replica) mayAdvanceCommitLocked() bool { return r.lc.phase == phaseFollowing }

// maySyncLocked: syncedLocked would take a catch-up run's success.
//
//spinnaker:locked(mu)
func (r *replica) maySyncLocked() bool { return r.awaitsSyncLocked() || r.mayAppendLocked() }

// awaitsSyncLocked: the replica serves nothing and stands only once its
// catch-up run has ended.
//
//spinnaker:locked(mu)
func (r *replica) awaitsSyncLocked() bool {
	return r.lc.phase == phaseRecovering || r.lc.phase == phaseSeeding
}

//spinnaker:locked(mu)
func (r *replica) seedingLocked() bool { return r.lc.phase == phaseSeeding }

//spinnaker:locked(mu)
func (r *replica) campaigningLocked() bool { return r.lc.phase == phaseCandidate }

// roleLocked projects the phase onto the public Role: Seeding reads as
// recovering, Gapped and Retired as follower, TakingOver as leader (Open
// false).
//
//spinnaker:locked(mu)
func (r *replica) roleLocked() Role {
	switch r.lc.phase {
	case phaseRecovering, phaseSeeding:
		return RoleRecovering
	case phaseCandidate:
		return RoleCandidate
	case phaseTakingOver, phaseLeading:
		return RoleLeader
	}
	return RoleFollower
}
