package core

import (
	"errors"
	"fmt"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
)

// LayoutPath is the znode the current cluster layout is published at.
// Nodes watch it and adopt successor layouts live (elastic scale-out);
// clients refresh from it when a node replies StatusWrongLayout.
const LayoutPath = "/cluster/layout"

// currentPath is the parent of the per-node "caught up" markers for a
// range: a member that has completed catch-up holds an ephemeral child
// here. The reconfiguration executor admits a joining member to a cohort
// (by shrinking the old member out) only once its marker exists.
func currentPath(r uint32) string { return fmt.Sprintf("/ranges/%d/current", r) }

// ErrLayoutConflict reports a lost publication race: another publisher
// advanced the layout first. Re-read, re-derive, retry.
var ErrLayoutConflict = errors.New("core: layout publication conflict")

// PublishLayout stores l at LayoutPath, guarded so versions only advance:
// publishing over an equal-or-newer layout fails with ErrLayoutConflict.
func PublishLayout(sess *coord.Session, l *cluster.Layout) error {
	if err := sess.EnsurePath("/cluster"); err != nil {
		return err
	}
	data := l.Encode()
	for {
		cur, ver, err := sess.GetVersion(LayoutPath)
		if errors.Is(err, coord.ErrNoNode) {
			if _, err := sess.Create(LayoutPath, data, 0); err == nil {
				return nil
			} else if !errors.Is(err, coord.ErrNodeExists) {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		if len(cur) > 0 {
			prev, err := cluster.Decode(cur)
			if err == nil && prev.Version() >= l.Version() {
				return ErrLayoutConflict
			}
		}
		if _, err := sess.CompareAndSet(LayoutPath, data, ver); err == nil {
			return nil
		} else if !errors.Is(err, coord.ErrBadVersion) {
			return err
		}
	}
}

// FetchLayout reads the published layout, or coord.ErrNoNode if none has
// been published yet.
func FetchLayout(sess *coord.Session) (*cluster.Layout, error) {
	data, err := sess.Get(LayoutPath)
	if err != nil {
		return nil, err
	}
	return cluster.Decode(data)
}

// markCurrent records that this node's replica of rangeID has completed
// catch-up, via an ephemeral marker (it disappears with the node's session,
// so a crashed-and-restarted member must re-earn it).
func (n *Node) markCurrent(rangeID uint32) {
	sess := n.coordSess
	if err := sess.EnsurePath(currentPath(rangeID)); err != nil {
		return
	}
	_, _ = sess.Create(currentPath(rangeID)+"/"+n.cfg.ID, nil, coord.FlagEphemeral)
}

// dropCurrent removes this node's catch-up marker for rangeID (replica
// retirement).
func (n *Node) dropCurrent(rangeID uint32) {
	_ = n.coordSess.Delete(currentPath(rangeID) + "/" + n.cfg.ID)
}

// CurrentMembers lists the nodes holding catch-up markers for rangeID.
func CurrentMembers(sess *coord.Session, rangeID uint32) ([]string, error) {
	kids, err := sess.Children(currentPath(rangeID))
	if errors.Is(err, coord.ErrNoNode) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(kids))
	for _, k := range kids {
		out = append(out, k.Name)
	}
	return out, nil
}
