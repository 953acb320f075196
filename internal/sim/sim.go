// Package sim is the test harness around a cluster: the nemesis
// (nemesis.go) composes seeded fault schedules — partitions, isolation,
// link faults, crash/restart, disk failure, live rebalancing — against
// concurrent workloads whose histories are checked for per-key
// linearizability; catchup.go holds the truncated-rejoin scenario, zipf.go
// the skewed key generator, and leakcheck.go the goroutine-leak sentinel.
//
// The cluster itself is not assembled here: SpinnakerCluster is
// host.Cluster, the same object the embedded API and spinnaker-server run,
// over the simulated network and logging devices.
package sim

import "spinnaker/internal/host"

// The Spinnaker side of the harness is package host's cluster under the
// names the harness has always used.
type (
	Options          = host.Options
	SpinnakerCluster = host.Cluster
	BalancerOptions  = host.BalancerOptions
	BalancerAction   = host.BalancerAction
	Balancer         = host.Balancer
)

// NewSpinnakerCluster builds and starts a cluster.
func NewSpinnakerCluster(opts Options) (*SpinnakerCluster, error) { return host.New(opts) }
