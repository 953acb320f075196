package host

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/core"
	"spinnaker/internal/simtime"
	"spinnaker/internal/transport"
)

// This file is the reconfiguration executor: the orchestration side of
// elastic scale-out. Mutations go through the published layout (the
// /cluster/layout znode): the executor derives a successor layout, publishes
// it, and waits for the cluster to converge — nodes adopt the layout live
// (creating, retiring, and re-membering replicas), joining members earn
// catch-up markers, and split-created ranges elect leaders once seeded.
// Membership changes one member at a time, so every old quorum intersects
// every new quorum and no joint-consensus machinery is needed.

// reconfigPoll paces the executor's convergence polling.
const reconfigPoll = 5 * time.Millisecond

// mutateLayout applies f to the current published layout and publishes the
// result, retrying on publication races.
func (c *Cluster) mutateLayout(f func(*cluster.Layout) (*cluster.Layout, error)) (*cluster.Layout, error) {
	for i := 0; ; i++ {
		next, err := f(c.CurrentLayout())
		if err != nil {
			return nil, err
		}
		sess := c.Coord.Connect()
		err = core.PublishLayout(sess, next)
		sess.Close()
		if err == nil {
			return next, nil
		}
		if !errors.Is(err, core.ErrLayoutConflict) || i > 16 {
			return nil, err
		}
	}
}

// AddNode starts a new, empty node and adds it to the cluster ring. With
// id == "" the next free node name is generated. The node serves no ranges
// until Rebalance (or explicit MoveRange/SplitRange calls) assigns it some.
func (c *Cluster) AddNode(id string) (string, error) {
	c.nodeMu.Lock()
	if id == "" {
		for i := 0; ; i++ {
			if _, ok := c.stores[nodeName(i)]; !ok {
				id = nodeName(i)
				break
			}
		}
	} else if _, ok := c.stores[id]; ok {
		c.nodeMu.Unlock()
		return "", fmt.Errorf("host: node %s already exists", id)
	}
	existing := make([]string, 0, len(c.stores))
	for name := range c.stores {
		existing = append(existing, name)
	}
	stores, err := c.newStores(id)
	if err == nil {
		c.stores[id] = stores
	}
	c.nodeMu.Unlock()
	if err != nil {
		return "", err
	}

	// The background fault plane covers the new node's links too.
	if c.opts.LinkFaults != (transport.LinkFaults{}) {
		for _, other := range existing {
			c.Net.SetLinkFaults(id, other, c.opts.LinkFaults)
			c.Net.SetLinkFaults(other, id, c.opts.LinkFaults)
		}
	}

	if _, err := c.mutateLayout(func(l *cluster.Layout) (*cluster.Layout, error) {
		return l.WithNode(id)
	}); err != nil {
		return "", err
	}
	if err := c.startNode(id); err != nil {
		return "", err
	}
	return id, nil
}

// waitAdopted blocks until every listed member that is currently running
// reports a layout version of at least version. Quorum intersection between
// consecutive layouts only holds for members at most one version behind, so
// a cohort mutation must not be published while a member of the previous
// cohort still operates under an older view (a leader two versions behind
// could commit under a quorum that no longer intersects the new one). A
// member that is down is safe to skip: on restart it bootstraps from the
// currently published layout, which is at least this version.
func (c *Cluster) waitAdopted(version uint64, members []string, deadline time.Time) error {
	for _, m := range members {
		for {
			n, ok := c.Node(m)
			if !ok {
				break // down; restart bootstraps from >= version
			}
			if n.LayoutVersion() >= version {
				break
			}
			if simtime.Now().After(deadline) {
				return fmt.Errorf("host: node %s did not adopt layout v%d in time", m, version)
			}
			simtime.Sleep(reconfigPoll)
		}
	}
	return nil
}

// waitCurrent blocks until node holds the catch-up marker for range r: it
// has completed catch-up (or a split pull) within its current session, so
// its log and engine hold the range's committed prefix.
func (c *Cluster) waitCurrent(r uint32, node string, deadline time.Time) error {
	sess := c.Coord.Connect()
	defer sess.Close()
	for {
		if members, err := core.CurrentMembers(sess, r); err == nil && slices.Contains(members, node) {
			return nil
		}
		if simtime.Now().After(deadline) {
			return fmt.Errorf("host: node %s did not catch up on range %d in time", node, r)
		}
		simtime.Sleep(reconfigPoll)
	}
}

// waitOpenLeader blocks until range r has an elected leader that is open
// for writes.
func (c *Cluster) waitOpenLeader(r uint32, deadline time.Time) error {
	for {
		if leader := c.LeaderOf(r); leader != "" {
			if n, ok := c.Node(leader); ok {
				if st, ok := n.ReplicaStats(r); ok && st.Role == core.RoleLeader && st.Open {
					return nil
				}
			}
		}
		if simtime.Now().After(deadline) {
			return fmt.Errorf("host: range %d has no open leader in time", r)
		}
		simtime.Sleep(reconfigPoll)
	}
}

// SplitRange splits range id at key: the published layout gains a new range
// [key, high) with the same cohort, whose replicas seed themselves from the
// origin leader (split pull) and elect a leader. Blocks until the new range
// is open for writes; returns its id.
func (c *Cluster) SplitRange(id uint32, key string, timeout time.Duration) (uint32, error) {
	var newID uint32
	if _, err := c.mutateLayout(func(l *cluster.Layout) (*cluster.Layout, error) {
		next, nid, err := l.WithSplit(id, key)
		newID = nid
		return next, err
	}); err != nil {
		return 0, err
	}
	return newID, c.waitOpenLeader(newID, simtime.Now().Add(timeout))
}

// MoveRange moves range id's membership from node `from` to node `to` in
// two published steps: expand the cohort with `to` (quorum grows by the
// usual majority rule), wait until `to` has caught up via catch-up data
// shipping, then shrink `from` out (it retires the replica and, if it led,
// triggers an election among the new membership). Blocks until the range
// has an open leader under the final membership.
func (c *Cluster) MoveRange(id uint32, from, to string, timeout time.Duration) error {
	deadline := simtime.Now().Add(timeout)
	cur := c.CurrentLayout().Cohort(id)
	if cur == nil {
		return fmt.Errorf("host: no range %d", id)
	}
	if !slices.Contains(cur, from) {
		return fmt.Errorf("host: node %s is not in range %d's cohort", from, id)
	}
	if slices.Contains(cur, to) {
		return fmt.Errorf("host: node %s is already in range %d's cohort", to, id)
	}
	// Phase 1: expand.
	expanded, err := c.mutateLayout(func(l *cluster.Layout) (*cluster.Layout, error) {
		cohort := l.Cohort(id)
		if cohort == nil {
			return nil, fmt.Errorf("host: range %d vanished", id)
		}
		if slices.Contains(cohort, to) {
			return nil, errNoChange
		}
		return l.WithCohort(id, append(cohort, to))
	})
	if err != nil && !errors.Is(err, errNoChange) {
		return err
	}
	// Adoption barrier: every old member must operate under the expanded
	// view before the next mutation, or quorum intersection across the
	// two steps is lost (see waitAdopted).
	if expanded != nil {
		if err := c.waitAdopted(expanded.Version(), expanded.Cohort(id), deadline); err != nil {
			return err
		}
	}
	// Admission gate: `to` joins the quorum math as a full member only
	// once it holds the committed prefix.
	if err := c.waitCurrent(id, to, deadline); err != nil {
		return err
	}
	// Phase 2: shrink the old member out.
	shrunk, err := c.mutateLayout(func(l *cluster.Layout) (*cluster.Layout, error) {
		cohort := l.Cohort(id)
		if cohort == nil {
			return nil, fmt.Errorf("host: range %d vanished", id)
		}
		out := cohort[:0:0]
		for _, n := range cohort {
			if n != from {
				out = append(out, n)
			}
		}
		if len(out) == len(cohort) {
			return nil, errNoChange
		}
		return l.WithCohort(id, out)
	})
	if err != nil && !errors.Is(err, errNoChange) {
		return err
	}
	if shrunk != nil {
		// The barrier includes `from`: until it adopts the shrink (and
		// retires) it can still commit under the expanded quorum, so a
		// further mutation must wait for it too.
		if err := c.waitAdopted(shrunk.Version(), append(shrunk.Cohort(id), from), deadline); err != nil {
			return err
		}
	}
	return c.waitOpenLeader(id, deadline)
}

// errNoChange short-circuits an idempotent mutation retry.
var errNoChange = errors.New("host: layout already reflects the change")

// keySpan parses the bounds of [low, high) in the cluster's fixed-width
// decimal key space ("" is the open end on either side); ok is false when a
// bound is not numeric.
func (c *Cluster) keySpan(low, high string) (lo, hi int, ok bool) {
	var errLo, errHi error
	hi = c.KeyDomain()
	if low != "" {
		lo, errLo = strconv.Atoi(low)
	}
	if high != "" {
		hi, errHi = strconv.Atoi(high)
	}
	return lo, hi, errLo == nil && errHi == nil
}

// midKey returns the numeric midpoint of [low, high), or "" when the range
// is too narrow to split.
func (c *Cluster) midKey(low, high string) string {
	lo, hi, ok := c.keySpan(low, high)
	mid := lo + (hi-lo)/2
	if !ok || mid <= lo || mid >= hi {
		return ""
	}
	return c.Key(mid)
}

// Rebalance spreads the key space over the current ring (paper §4's
// placement, recomputed for the grown cluster): wide ranges are split until
// there is at least one range per node, every cohort is morphed — one
// member at a time — onto the ring placement over all nodes, and
// leadership is transferred toward each range's home node. Runs safely
// while a workload is executing; writes to affected ranges see bounded
// unavailability (re-routes and elections), never inconsistency.
func (c *Cluster) Rebalance(timeout time.Duration) error {
	deadline := simtime.Now().Add(timeout)

	// Phase 1: split until there is a range per node.
	for {
		l := c.CurrentLayout()
		nodes := l.Nodes()
		if l.NumRanges() >= len(nodes) {
			break
		}
		// Split the numerically widest range.
		var widest uint32
		widestSpan := -1
		var widestKey string
		for _, id := range l.RangeIDs() {
			low, high := l.Bounds(id)
			key := c.midKey(low, high)
			if key == "" {
				continue
			}
			if lo, hi, _ := c.keySpan(low, high); hi-lo > widestSpan {
				widest, widestSpan, widestKey = id, hi-lo, key
			}
		}
		if widestKey == "" {
			break // nothing splittable
		}
		if _, err := c.SplitRange(widest, widestKey, time.Until(deadline)); err != nil {
			return fmt.Errorf("host: rebalance split: %w", err)
		}
	}

	// Phase 2: morph each cohort onto the ring placement over all nodes.
	l := c.CurrentLayout()
	nodes := l.Nodes()
	n := l.Replication()
	if n > len(nodes) {
		n = len(nodes)
	}
	ids := l.RangeIDs()
	for i, id := range ids {
		target := make([]string, 0, n)
		for j := 0; j < n; j++ {
			target = append(target, nodes[(i+j)%len(nodes)])
		}
		for {
			cur := c.CurrentLayout().Cohort(id)
			if cur == nil {
				return fmt.Errorf("host: range %d vanished during rebalance", id)
			}
			var add, rm string
			for _, t := range target {
				if !slices.Contains(cur, t) {
					add = t
					break
				}
			}
			for _, m := range cur {
				if !slices.Contains(target, m) {
					rm = m
					break
				}
			}
			if add == "" && rm == "" {
				break
			}
			if add != "" && rm != "" {
				if err := c.MoveRange(id, rm, add, time.Until(deadline)); err != nil {
					return fmt.Errorf("host: rebalance move r%d %s->%s: %w", id, rm, add, err)
				}
				continue
			}
			// Pure expand or shrink (cohort size differs from target).
			next := append([]string(nil), cur...)
			if add != "" {
				next = append(next, add)
			} else {
				out := next[:0]
				for _, m := range next {
					if m != rm {
						out = append(out, m)
					}
				}
				next = out
			}
			published, err := c.mutateLayout(func(l *cluster.Layout) (*cluster.Layout, error) {
				return l.WithCohort(id, next)
			})
			if err != nil {
				return fmt.Errorf("host: rebalance recohort r%d: %w", id, err)
			}
			// Adoption barrier over old and new members alike; see
			// waitAdopted.
			if err := c.waitAdopted(published.Version(), append(published.Cohort(id), cur...), deadline); err != nil {
				return err
			}
			if add != "" {
				if err := c.waitCurrent(id, add, deadline); err != nil {
					return err
				}
			}
			if err := c.waitOpenLeader(id, deadline); err != nil {
				return err
			}
		}
	}

	// Phase 3: order each cohort home-first in the published layout, so
	// elections prefer the intended placement, and transfer leadership
	// toward the home node so load actually spreads onto the new members.
	// A transfer that did not take still leaves an open leader and the
	// home-first order, which later elections follow.
	for i, id := range ids {
		if err := c.TransferLeadership(id, nodes[i%len(nodes)], time.Until(deadline)); err != nil && !errors.Is(err, ErrTransferNotTaken) {
			return err
		}
	}
	return nil
}
