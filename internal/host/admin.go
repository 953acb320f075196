package host

import (
	"spinnaker/internal/admin"
	"spinnaker/internal/cluster"
	"spinnaker/internal/core"
)

// AdminSource adapts the in-process cluster to the admin HTTP plane
// (package admin): serve its handler over httptest or a real listener to
// observe the simulation exactly as an operator would a deployment.
func (c *Cluster) AdminSource() admin.Source {
	return admin.Source{
		Nodes: c.Nodes,
		NodeMetrics: func(id string) (core.NodeMetrics, bool) {
			n, ok := c.Node(id)
			if !ok {
				return core.NodeMetrics{}, false
			}
			return n.Metrics(), true
		},
		Layout:   func() *cluster.Layout { return c.CurrentLayout() },
		LeaderOf: c.LeaderOf,
	}
}
