// Package platform models the hardware of a compute cluster: named nodes,
// an interconnect with a latency/bandwidth cost model, and process-launch
// overheads. It corresponds to the Marenostrum testbed of the paper
// (65 nodes, two 8-core Xeon E5-2670 each, InfiniBand FDR10): one MPI rank
// per node, exclusive node allocation.
package platform

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/sim"
)

// Node is one compute node. Jobs are allocated whole nodes (exclusive use)
// and run one MPI rank per node, matching the paper's setup where
// intra-node parallelism belongs to OmpSs/OpenMP.
type Node struct {
	Index int
	Name  string
	Cores int
	// Power is the node's machine-class power model (energy accounting).
	Power energy.Profile
}

// Class returns the node's machine-class name (the Profile.Class of its
// power model), the identity class-aware scheduling constraints match on.
func (n *Node) Class() string { return n.Power.Class }

// Speed returns the node's P0 execution speed relative to the reference
// machine; efficiency-class nodes run below 1.0.
func (n *Node) Speed() float64 { return n.Power.SpeedAt(0) }

// EnergyPerWork returns the node's joules per unit of reference work at
// P0 (active power over speed) — the figure of merit for steering
// class-indifferent jobs toward the cheapest hardware that still keeps
// their allocation class-pure.
func (n *Node) EnergyPerWork() float64 {
	if s := n.Speed(); s > 0 {
		return n.Power.ActiveW(0) / s
	}
	return n.Power.ActiveW(0)
}

// MachineClass assigns a power profile to a contiguous block of nodes,
// the heterogeneous-cluster idiom of energy-efficiency simulators.
type MachineClass struct {
	Count int
	Power energy.Profile
}

// NetModel is a linear latency/bandwidth model of the interconnect.
type NetModel struct {
	Latency     sim.Time // per-message latency
	BytesPerSec float64  // link bandwidth
}

// TransferTime returns the time to move size bytes point to point.
func (n NetModel) TransferTime(size int64) sim.Time {
	if size <= 0 {
		return n.Latency
	}
	return n.Latency + sim.Seconds(float64(size)/n.BytesPerSec)
}

// Config sizes a Cluster.
type Config struct {
	Nodes         int
	CoresPerNode  int
	Net           NetModel
	SpawnBase     sim.Time // fixed cost of an MPI_Comm_spawn call
	SpawnPerProc  sim.Time // additional launch cost per spawned process
	RPCLatency    sim.Time // runtime <-> resource-manager round trip
	PFSBytesPS    float64  // parallel filesystem bandwidth (checkpointing)
	PFSOpenCost   sim.Time // per-process file open/close overhead on the PFS
	PFSConcurrent int      // PFS service slots (concurrent streams)

	// Power is the uniform node power model; the zero value selects
	// energy.DefaultProfile (the paper's Xeon E5-2670 nodes).
	Power energy.Profile
	// Classes, when non-empty, carves the cluster into heterogeneous
	// machine classes: the first Classes[0].Count nodes take the first
	// profile, and so on. Nodes beyond the listed classes fall back to
	// Power.
	Classes []MachineClass
}

// Validate reports whether the configuration can build a cluster. The
// Classes partition is the subtle part: counts must be non-negative and
// sum to at most Nodes. A negative count used to silently swallow every
// subsequent class (the assignment cursor never advanced past it), and
// an over-covering list silently truncated — both now fail loudly here
// instead of producing a fleet that differs from the one configured.
// Every profile a node receives must pass energy.Profile.Validate: each
// run meters its nodes, and the accountant refuses a bad power model.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("platform: cluster needs at least one node, got %d", c.Nodes)
	}
	covered := 0
	for i, mc := range c.Classes {
		if mc.Count < 0 {
			return fmt.Errorf("platform: class %d (%q) has negative count %d", i, mc.Power.Class, mc.Count)
		}
		if mc.Count == 0 {
			continue
		}
		if err := mc.Power.Validate(); err != nil {
			return fmt.Errorf("platform: class %d: %v", i, err)
		}
		covered += mc.Count
	}
	if covered > c.Nodes {
		return fmt.Errorf("platform: classes cover %d nodes but the cluster has %d", covered, c.Nodes)
	}
	if covered < c.Nodes && len(c.Power.PStates) > 0 {
		// The zero-value base profile selects energy.DefaultProfile.
		if err := c.Power.Validate(); err != nil {
			return fmt.Errorf("platform: base profile: %v", err)
		}
	}
	return nil
}

// Marenostrum3 returns the paper's testbed dimensions with calibrated
// interconnect and storage constants (see DESIGN.md §5).
func Marenostrum3() Config {
	return Config{
		Nodes:         65,
		CoresPerNode:  16,
		Net:           NetModel{Latency: 2 * sim.Microsecond, BytesPerSec: 5e9},
		SpawnBase:     20 * sim.Millisecond,
		SpawnPerProc:  25 * sim.Millisecond,
		RPCLatency:    5 * sim.Millisecond,
		PFSBytesPS:    500e6,
		PFSOpenCost:   200 * sim.Millisecond,
		PFSConcurrent: 4,
	}
}

// Cluster is the simulated machine: a kernel plus hardware description.
type Cluster struct {
	K     *sim.Kernel
	Nodes []*Node
	Cfg   Config
	PFS   *sim.Resource // shared parallel-filesystem service slots
}

// New builds a cluster with cfg on a fresh simulation kernel.
func New(cfg Config) *Cluster {
	return NewOn(sim.NewKernel(), cfg)
}

// NewOn builds a cluster with cfg on an existing kernel. Invalid
// configurations panic: a silently mis-partitioned heterogeneous fleet
// would corrupt every class-aware placement decision downstream.
func NewOn(k *sim.Kernel, cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.PFSConcurrent <= 0 {
		cfg.PFSConcurrent = 1
	}
	if len(cfg.Power.PStates) == 0 {
		cfg.Power = energy.DefaultProfile()
	}
	c := &Cluster{K: k, Cfg: cfg, PFS: sim.NewResource(k, cfg.PFSConcurrent)}
	classIdx, classLeft := 0, 0
	if len(cfg.Classes) > 0 {
		classLeft = cfg.Classes[0].Count
	}
	for i := 0; i < cfg.Nodes; i++ {
		power := cfg.Power
		for classIdx < len(cfg.Classes) && classLeft == 0 {
			classIdx++
			if classIdx < len(cfg.Classes) {
				classLeft = cfg.Classes[classIdx].Count
			}
		}
		if classIdx < len(cfg.Classes) && classLeft > 0 {
			power = cfg.Classes[classIdx].Power
			classLeft--
		}
		c.Nodes = append(c.Nodes, &Node{Index: i, Name: fmt.Sprintf("node%03d", i), Cores: cfg.CoresPerNode, Power: power})
	}
	return c
}

// ClassCount returns how many nodes belong to the named machine class.
func (c *Cluster) ClassCount(class string) int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Class() == class {
			n++
		}
	}
	return n
}

// PowerProfiles returns the per-node power models in node-index order,
// the input an energy.Accountant needs.
func (c *Cluster) PowerProfiles() []energy.Profile {
	out := make([]energy.Profile, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Power
	}
	return out
}

// Net returns the interconnect model.
func (c *Cluster) Net() NetModel { return c.Cfg.Net }

// PFSWriteTime returns the time one stream needs to write size bytes to
// the parallel filesystem, excluding queueing for a service slot.
func (c *Cluster) PFSWriteTime(size int64) sim.Time {
	return c.Cfg.PFSOpenCost + sim.Seconds(float64(size)/c.Cfg.PFSBytesPS)
}
