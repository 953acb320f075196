package sim

import (
	"errors"
	"testing"
)

// TestTruncatedRejoinLinearizable is the nemesis-style pin for the bulk
// catch-up path: a follower crashes, the cohort truncates the shared log
// past its f.cmt, and the rejoin — which must take the SSTable-shipping
// path — happens under a concurrent recorded workload that is then checked
// for per-key linearizability.
func TestTruncatedRejoinLinearizable(t *testing.T) {
	res, err := RunTruncatedRejoin(RejoinOptions{Seed: 7, PreloadRows: 300})
	if errors.Is(err, ErrNeverTruncated) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotCatchups == 0 {
		t.Errorf("rejoin across a truncated log took no snapshot catch-ups")
	}
	if res.SnapshotsServed == 0 {
		t.Errorf("no surviving leader served a snapshot manifest")
	}
	t.Logf("victim %s rejoined in %v (%d snapshot catch-ups, %d ops checked)",
		res.Victim, res.RejoinTime, res.SnapshotCatchups, res.Ops)
}

// TestTruncatedRejoinDiskLoss runs the same scenario through the §6.1 disk
// failure: the victim's stable storage is destroyed, so the rejoin rebuilds
// every range from shipped SSTables into an empty engine.
func TestTruncatedRejoinDiskLoss(t *testing.T) {
	res, err := RunTruncatedRejoin(RejoinOptions{Seed: 11, PreloadRows: 300, DiskLoss: true})
	if errors.Is(err, ErrNeverTruncated) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotCatchups == 0 {
		t.Errorf("disk-loss rejoin took no snapshot catch-ups")
	}
	t.Logf("victim %s rebuilt in %v (%d snapshot catch-ups, %d ops checked)",
		res.Victim, res.RejoinTime, res.SnapshotCatchups, res.Ops)
}
