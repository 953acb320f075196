package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var allPhases = []phase{phaseRecovering, phaseSeeding, phaseFollowing, phaseGapped,
	phaseCandidate, phaseTakingOver, phaseLeading, phaseRetired}

// TestLifecycleTransitions drives every transition from every phase: a legal
// move lands where the table says, and an illegal one is refused and leaves
// the lifecycle unchanged.
func TestLifecycleTransitions(t *testing.T) {
	const self, leader, other = "self", "L", "O"
	// learn reports whether learning the leader was taken: it is refused
	// only once retired.
	learn := func(r *replica) bool { r.followLocked(leader); return r.lc.phase != phaseRetired }
	type move map[phase]phase // from → to; a missing from is refused
	cases := []struct {
		name string
		// leaderID is the leader the replica follows before the event.
		leaderID string
		event    func(r *replica) bool
		legal    move
		// wantLeader is the leaderID after a legal move ("-" leaves it).
		wantLeader string
	}{
		{"recover", "", func(r *replica) bool { return r.recoverLocked(false) },
			move{phaseRecovering: phaseRecovering}, "-"},
		{"recover seeding", "", func(r *replica) bool { return r.recoverLocked(true) },
			move{phaseRecovering: phaseSeeding}, "-"},
		{"synced with the leader followed", leader, func(r *replica) bool { return r.syncedLocked(leader) },
			move{phaseRecovering: phaseFollowing, phaseSeeding: phaseFollowing,
				phaseGapped: phaseFollowing, phaseFollowing: phaseFollowing}, leader},
		{"synced, no leader known", "", func(r *replica) bool { return r.syncedLocked(leader) },
			move{phaseRecovering: phaseFollowing, phaseSeeding: phaseFollowing,
				phaseGapped: phaseFollowing, phaseFollowing: phaseFollowing}, leader},
		{"synced with another leader", other, func(r *replica) bool { return r.syncedLocked(leader) },
			move{}, "-"},
		{"split pull", "", func(r *replica) bool { return r.syncedLocked("") },
			move{phaseRecovering: phaseFollowing, phaseSeeding: phaseFollowing,
				phaseGapped: phaseFollowing, phaseFollowing: phaseFollowing}, ""},
		{"gap", leader, func(r *replica) bool { return r.gapLocked() },
			move{phaseFollowing: phaseGapped}, "-"},
		{"learn the leader followed", leader, learn,
			move{phaseRecovering: phaseRecovering, phaseSeeding: phaseSeeding,
				phaseFollowing: phaseFollowing, phaseGapped: phaseGapped,
				phaseCandidate: phaseRecovering, phaseTakingOver: phaseRecovering,
				phaseLeading: phaseRecovering}, leader},
		{"learn another leader", other, learn,
			move{phaseRecovering: phaseRecovering, phaseSeeding: phaseSeeding,
				phaseFollowing: phaseRecovering, phaseGapped: phaseRecovering,
				phaseCandidate: phaseRecovering, phaseTakingOver: phaseRecovering,
				phaseLeading: phaseRecovering}, leader},
		{"stand", leader, func(r *replica) bool { return r.standLocked() },
			move{phaseRecovering: phaseCandidate, phaseFollowing: phaseCandidate,
				phaseGapped: phaseCandidate, phaseCandidate: phaseCandidate}, "-"},
		{"claim", "", func(r *replica) bool { return r.claimLocked() },
			move{phaseCandidate: phaseTakingOver}, self},
		{"takeover failed", self, func(r *replica) bool { return r.takeoverFailedLocked() },
			move{phaseTakingOver: phaseCandidate}, "-"},
		{"open", self, func(r *replica) bool { return r.openLocked() },
			move{phaseTakingOver: phaseLeading}, "-"},
		{"demote", self, func(r *replica) bool { return r.demoteLocked(leader) },
			move{phaseTakingOver: phaseRecovering, phaseLeading: phaseRecovering}, leader},
		{"step down", self, func(r *replica) bool { return r.stepDownLocked() },
			move{phaseTakingOver: phaseRecovering, phaseLeading: phaseRecovering}, ""},
		{"retire", leader, func(r *replica) bool { return r.retireLocked() },
			move{phaseRecovering: phaseRetired, phaseSeeding: phaseRetired,
				phaseFollowing: phaseRetired, phaseGapped: phaseRetired,
				phaseCandidate: phaseRetired, phaseTakingOver: phaseRetired,
				phaseLeading: phaseRetired}, ""},
	}
	for _, c := range cases {
		for _, from := range allPhases {
			r := &replica{n: &Node{cfg: Config{ID: self}}, queue: newCommitQueue(),
				electionNudge: make(chan struct{}, 1)}
			r.lc.phase, r.leaderID = from, c.leaderID
			r.mu.Lock()
			ok := c.event(r)
			r.mu.Unlock()
			to, legal := c.legal[from]
			switch {
			case legal && (!ok || r.lc.phase != to):
				t.Errorf("%s from %d: ok=%v phase %d, want %d", c.name, from, ok, r.lc.phase, to)
			case legal && c.wantLeader != "-" && r.leaderID != c.wantLeader:
				t.Errorf("%s from %d: leader %q, want %q", c.name, from, r.leaderID, c.wantLeader)
			case !legal && (ok || r.lc.phase != from || r.leaderID != c.leaderID):
				t.Errorf("%s from %d: ok=%v phase %d leader %q, want refused and unchanged",
					c.name, from, ok, r.lc.phase, r.leaderID)
			}
		}
	}
	// The abstain bit is set by a step-down and taken once.
	r := &replica{n: &Node{}, queue: newCommitQueue(), electionNudge: make(chan struct{}, 1)}
	r.mu.Lock()
	r.lc.phase = phaseLeading
	r.stepDownLocked()
	if !r.takeAbstainLocked() || r.takeAbstainLocked() {
		t.Error("a step-down's abstain bit is not taken exactly once")
	}
	r.mu.Unlock()
}

// TestLifecyclePredicates pins each predicate's phases.
func TestLifecyclePredicates(t *testing.T) {
	set := func(ps ...phase) map[phase]bool {
		m := map[phase]bool{}
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	preds := []struct {
		name string
		pred func(r *replica) bool
		true map[phase]bool
	}{
		{"isLeader", (*replica).isLeaderLocked, set(phaseTakingOver, phaseLeading)},
		{"mayServeStrong", (*replica).mayServeStrongLocked, set(phaseLeading)},
		{"mayServeTimeline", (*replica).mayServeTimelineLocked,
			set(phaseFollowing, phaseGapped, phaseCandidate, phaseTakingOver, phaseLeading)},
		{"mayAppend", (*replica).mayAppendLocked, set(phaseFollowing, phaseGapped)},
		{"mayAdvanceCommit", (*replica).mayAdvanceCommitLocked, set(phaseFollowing)},
		{"maySync", (*replica).maySyncLocked, set(phaseRecovering, phaseSeeding, phaseFollowing, phaseGapped)},
		{"awaitsSync", (*replica).awaitsSyncLocked, set(phaseRecovering, phaseSeeding)},
		{"seeding", (*replica).seedingLocked, set(phaseSeeding)},
		{"campaigning", (*replica).campaigningLocked, set(phaseCandidate)},
	}
	roles := map[phase]Role{phaseRecovering: RoleRecovering, phaseSeeding: RoleRecovering,
		phaseFollowing: RoleFollower, phaseGapped: RoleFollower, phaseCandidate: RoleCandidate,
		phaseTakingOver: RoleLeader, phaseLeading: RoleLeader, phaseRetired: RoleFollower}
	for _, p := range allPhases {
		r := &replica{}
		r.lc.phase = p
		r.mu.Lock()
		for _, pr := range preds {
			if got := pr.pred(r); got != pr.true[p] {
				t.Errorf("%s in phase %d = %v", pr.name, p, got)
			}
		}
		if got := r.roleLocked(); got != roles[p] {
			t.Errorf("role of phase %d = %s, want %s", p, got, roles[p])
		}
		r.mu.Unlock()
	}
}

// TestLifecycleOnlyInItsFile parses the package's non-test files and fails
// if any file but lifecycle.go reads or writes a replica's lifecycle (the
// lc field) or names a phase: the rest of the package goes through the
// transitions and predicates.
func TestLifecycleOnlyInItsFile(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	fset := token.NewFileSet()
	lf, err := parser.ParseFile(fset, "lifecycle.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lf.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, s := range g.Specs {
				for _, n := range s.(*ast.ValueSpec).Names {
					phases[n.Name] = true
				}
			}
		}
	}
	if len(phases) == 0 {
		t.Fatal("lifecycle.go declares no phases")
	}
	checked := 0
	for _, name := range files {
		if name == "lifecycle.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "lc" {
					t.Errorf("%s: the lifecycle is touched outside lifecycle.go", fset.Position(n.Pos()))
				}
			case *ast.Ident:
				if phases[n.Name] {
					t.Errorf("%s: %s named outside lifecycle.go", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
	if checked < 5 {
		t.Fatalf("checked %d files; run from the package directory", checked)
	}
}
