// Package cluster implements Spinnaker's key-based range partitioning and
// replica placement (paper §4, Figure 2), extended with the versioned,
// mutable layouts that elastic scale-out needs. The rows of a table are
// distributed by range partitioning; the group of nodes replicating a key
// range is its cohort. At construction cohorts follow the paper's chained
// declustering: each node is home to one base range, replicated on the next
// N−1 nodes in ring order, so cohorts overlap and a node in a 3-way
// replicated cluster belongs to 3 cohorts.
//
// Unlike the seed implementation, a Layout is no longer fixed for the life
// of the cluster: ranges carry stable IDs and explicit cohort membership,
// and the WithNode / WithSplit / WithCohort mutators derive successor
// layouts (version+1) for live reconfiguration — new nodes join the ring,
// wide ranges split, and cohort membership changes one member at a time.
// The current layout is published through the coordination service (see
// core.PublishLayout) and every node and client follows it.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultReplication is the paper's default replication factor (N = 3).
const DefaultReplication = 3

// Range is one key range of the layout: a stable identity, a low key bound
// (the high bound is the next range's low bound), and the explicit cohort
// of nodes replicating it. Cohort[0] is the home node — the preferred
// leader, used as the election tie-break.
type Range struct {
	ID     uint32
	Low    string
	Cohort []string
	// Origin is the range this one was split from, when HasOrigin is
	// set. A joining replica of a split-created range pulls its initial
	// state from the origin range's leader.
	Origin    uint32
	HasOrigin bool
}

// Layout is a versioned partitioning of the key space across a cluster.
// Leadership within each cohort is dynamic (chosen by election through the
// coordination service) and deliberately not part of the Layout. Layouts
// are immutable; mutators return a successor with version+1.
type Layout struct {
	version uint64
	nextID  uint32
	nodes   []string
	ranges  []Range // sorted by Low; ranges[0].Low == ""
	n       int     // nominal replication factor
}

// New builds a version-1 layout with the paper's ring placement.
// splits[0] must be the empty string (the lowest key); range i covers
// [splits[i], splits[i+1]), with the last range extending to the top of the
// key space. len(splits) must equal len(nodes): node i is the home of base
// range i, and range i's cohort is nodes i..i+N−1 in ring order (Figure 2).
func New(nodes []string, splits []string, replication int) (*Layout, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if len(splits) != len(nodes) {
		return nil, fmt.Errorf("cluster: %d splits for %d nodes", len(splits), len(nodes))
	}
	if splits[0] != "" {
		return nil, fmt.Errorf("cluster: splits[0] must be the empty string")
	}
	if !sort.StringsAreSorted(splits) {
		return nil, fmt.Errorf("cluster: splits must be sorted")
	}
	for i := 1; i < len(splits); i++ {
		if splits[i] == splits[i-1] {
			return nil, fmt.Errorf("cluster: duplicate split %q", splits[i])
		}
	}
	if replication <= 0 {
		replication = DefaultReplication
	}
	if replication > len(nodes) {
		return nil, fmt.Errorf("cluster: replication %d exceeds %d nodes", replication, len(nodes))
	}
	l := &Layout{
		version: 1,
		nextID:  uint32(len(splits)),
		nodes:   append([]string(nil), nodes...),
		n:       replication,
	}
	for i, low := range splits {
		cohort := make([]string, 0, replication)
		for j := 0; j < replication; j++ {
			cohort = append(cohort, nodes[(i+j)%len(nodes)])
		}
		l.ranges = append(l.ranges, Range{ID: uint32(i), Low: low, Cohort: cohort})
	}
	return l, nil
}

// Uniform builds a layout over the given nodes with split points spaced
// uniformly through a fixed-width decimal key space ("000000"..), matching
// the numeric row keys used by the paper's workloads. Keys are expected to
// be zero-padded to width digits.
func Uniform(nodes []string, width, replication int) (*Layout, error) {
	n := len(nodes)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	max := 1
	for i := 0; i < width; i++ {
		max *= 10
	}
	splits := make([]string, n)
	for i := 1; i < n; i++ {
		splits[i] = fmt.Sprintf("%0*d", width, i*max/n)
	}
	return New(nodes, splits, replication)
}

// clone returns a deep copy with the version advanced by one.
func (l *Layout) clone() *Layout {
	c := &Layout{
		version: l.version + 1,
		nextID:  l.nextID,
		nodes:   append([]string(nil), l.nodes...),
		ranges:  make([]Range, len(l.ranges)),
		n:       l.n,
	}
	for i, r := range l.ranges {
		r.Cohort = append([]string(nil), r.Cohort...)
		c.ranges[i] = r
	}
	return c
}

// Version returns the layout version; successors from the mutators and from
// the coordination service always carry strictly larger versions.
func (l *Layout) Version() uint64 { return l.version }

// Nodes returns the node ids in ring order.
func (l *Layout) Nodes() []string { return append([]string(nil), l.nodes...) }

// HasNode reports whether node is part of the cluster ring.
func (l *Layout) HasNode(node string) bool {
	for _, n := range l.nodes {
		if n == node {
			return true
		}
	}
	return false
}

// NumRanges returns the number of key ranges.
func (l *Layout) NumRanges() int { return len(l.ranges) }

// Replication returns the nominal replication factor N. A range mid-move
// may transiently have N+1 cohort members; use Quorum for the range's
// actual majority size.
func (l *Layout) Replication() int { return l.n }

// Ranges returns a snapshot of every range, in key order.
func (l *Layout) Ranges() []Range {
	out := make([]Range, len(l.ranges))
	for i, r := range l.ranges {
		r.Cohort = append([]string(nil), r.Cohort...)
		out[i] = r
	}
	return out
}

// RangeIDs returns the ids of every range, in key order. After splits, ids
// are stable identities and are not dense.
func (l *Layout) RangeIDs() []uint32 {
	out := make([]uint32, len(l.ranges))
	for i, r := range l.ranges {
		out[i] = r.ID
	}
	return out
}

// rangeIndex returns the index of the range with the given id, or -1.
func (l *Layout) rangeIndex(id uint32) int {
	for i, r := range l.ranges {
		if r.ID == id {
			return i
		}
	}
	return -1
}

// HasRange reports whether a range with the given id exists.
func (l *Layout) HasRange(id uint32) bool { return l.rangeIndex(id) >= 0 }

// RangeOf returns the id of the key range containing key.
func (l *Layout) RangeOf(key string) uint32 {
	// Find the last range whose low bound is ≤ key.
	i := sort.Search(len(l.ranges), func(i int) bool { return l.ranges[i].Low > key }) - 1
	if i < 0 {
		i = 0
	}
	return l.ranges[i].ID
}

// Cohort returns the nodes replicating range r, home node first. It returns
// nil for an unknown range id.
func (l *Layout) Cohort(r uint32) []string {
	i := l.rangeIndex(r)
	if i < 0 {
		return nil
	}
	return append([]string(nil), l.ranges[i].Cohort...)
}

// CohortMember returns member n modulo the cohort size of range r's cohort,
// without copying the cohort: how a reader picks one replica. It returns ""
// for an unknown range id.
func (l *Layout) CohortMember(r uint32, n uint64) string {
	i := l.rangeIndex(r)
	if i < 0 || len(l.ranges[i].Cohort) == 0 {
		return ""
	}
	cohort := l.ranges[i].Cohort
	return cohort[n%uint64(len(cohort))]
}

// CohortContains reports whether node participates in range r's cohort.
func (l *Layout) CohortContains(r uint32, node string) bool {
	i := l.rangeIndex(r)
	if i < 0 {
		return false
	}
	for _, n := range l.ranges[i].Cohort {
		if n == node {
			return true
		}
	}
	return false
}

// RangesOf returns the ids of every range whose cohort includes node, in
// ascending id order.
func (l *Layout) RangesOf(node string) []uint32 {
	var out []uint32
	for _, r := range l.ranges {
		for _, n := range r.Cohort {
			if n == node {
				out = append(out, r.ID)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Bounds returns the [low, high) key bounds of range r; high == "" means
// the top of the key space.
func (l *Layout) Bounds(r uint32) (low, high string) {
	i := l.rangeIndex(r)
	if i < 0 {
		return "", ""
	}
	low = l.ranges[i].Low
	if i+1 < len(l.ranges) {
		high = l.ranges[i+1].Low
	}
	return low, high
}

// HomeNode returns the node that is home to range r (the first member of
// its cohort; the preferred leader).
func (l *Layout) HomeNode(r uint32) string {
	i := l.rangeIndex(r)
	if i < 0 {
		return ""
	}
	return l.ranges[i].Cohort[0]
}

// Quorum returns the majority size of range r's cohort.
func (l *Layout) Quorum(r uint32) int {
	i := l.rangeIndex(r)
	if i < 0 {
		return 0
	}
	return len(l.ranges[i].Cohort)/2 + 1
}

// Origin returns the range r was split from, if it has one and that range
// still exists.
func (l *Layout) Origin(r uint32) (uint32, bool) {
	i := l.rangeIndex(r)
	if i < 0 || !l.ranges[i].HasOrigin {
		return 0, false
	}
	if l.rangeIndex(l.ranges[i].Origin) < 0 {
		return 0, false
	}
	return l.ranges[i].Origin, true
}

// WithNode returns a successor layout with node added to the ring. The new
// node belongs to no cohort yet; WithCohort moves ranges onto it.
func (l *Layout) WithNode(node string) (*Layout, error) {
	if node == "" {
		return nil, fmt.Errorf("cluster: empty node id")
	}
	if l.HasNode(node) {
		return nil, fmt.Errorf("cluster: node %s already in layout", node)
	}
	c := l.clone()
	c.nodes = append(c.nodes, node)
	return c, nil
}

// WithSplit returns a successor layout where range id is split at key: the
// original range keeps [low, key) and a new range (fresh id, same cohort,
// origin = id) takes [key, high). The new range's id is returned.
func (l *Layout) WithSplit(id uint32, key string) (*Layout, uint32, error) {
	i := l.rangeIndex(id)
	if i < 0 {
		return nil, 0, fmt.Errorf("cluster: no range %d", id)
	}
	low, high := l.Bounds(id)
	if key <= low || (high != "" && key >= high) {
		return nil, 0, fmt.Errorf("cluster: split key %q outside range %d bounds [%q, %q)", key, id, low, high)
	}
	c := l.clone()
	newID := c.nextID
	c.nextID++
	nr := Range{
		ID:        newID,
		Low:       key,
		Cohort:    append([]string(nil), c.ranges[i].Cohort...),
		Origin:    id,
		HasOrigin: true,
	}
	c.ranges = append(c.ranges, Range{})
	copy(c.ranges[i+2:], c.ranges[i+1:])
	c.ranges[i+1] = nr
	return c, newID, nil
}

// WithCohort returns a successor layout where range id's cohort is replaced.
// Membership should change one node at a time (expand by one, or shrink by
// one): single-member changes keep every old quorum intersecting every new
// quorum, which is what makes reconfiguration safe without joint consensus.
func (l *Layout) WithCohort(id uint32, cohort []string) (*Layout, error) {
	i := l.rangeIndex(id)
	if i < 0 {
		return nil, fmt.Errorf("cluster: no range %d", id)
	}
	if len(cohort) == 0 {
		return nil, fmt.Errorf("cluster: empty cohort for range %d", id)
	}
	seen := make(map[string]bool, len(cohort))
	for _, n := range cohort {
		if !l.HasNode(n) {
			return nil, fmt.Errorf("cluster: cohort node %s not in layout", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate cohort node %s", n)
		}
		seen[n] = true
	}
	old := l.ranges[i].Cohort
	if d := membershipDelta(old, cohort); d > 1 {
		return nil, fmt.Errorf("cluster: cohort change for range %d alters %d members; change one at a time", id, d)
	}
	c := l.clone()
	c.ranges[i].Cohort = append([]string(nil), cohort...)
	return c, nil
}

// membershipDelta counts the nodes present in exactly one of the two
// cohorts (set symmetric difference, ignoring order).
func membershipDelta(a, b []string) int {
	in := func(set []string, n string) bool {
		for _, s := range set {
			if s == n {
				return true
			}
		}
		return false
	}
	d := 0
	for _, n := range a {
		if !in(b, n) {
			d++
		}
	}
	for _, n := range b {
		if !in(a, n) {
			d++
		}
	}
	return d
}
