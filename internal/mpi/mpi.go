// Package mpi is an in-memory Message Passing Interface substrate for the
// simulation. Ranks are simulated processes; messages carry real Go data
// (slices are copied on send, so ranks never share memory); transfer and
// collective costs are charged in virtual time from the cluster's network
// model.
//
// The subset implemented is the one the paper's malleable applications
// need: point-to-point (Send, Recv, Isend, Irecv, Wait, Waitall, wildcard
// matching), collectives (Barrier, Bcast, Reduce, Allreduce, Gather,
// Allgather, Scatter), and dynamic process management (CommSpawn with a
// parent intercommunicator, the foundation of DMR reconfiguration).
package mpi

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sim"
)

// Wildcards for Recv matching, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Cloner lets message payloads define deep copy, preserving the
// no-shared-memory property for application-defined types.
type Cloner interface{ CloneData() any }

// Clone deep-copies well-known payload shapes ([]float64, []byte, []int,
// Cloner implementations); other values pass through. Exposed for
// layers that wrap payloads in their own envelope types.
func Clone(v any) any { return cloneData(v) }

// cloneData copies well-known payload shapes so sender and receiver never
// alias the same backing array.
func cloneData(v any) any {
	switch d := v.(type) {
	case nil:
		return nil
	case []float64:
		out := make([]float64, len(d))
		copy(out, d)
		return out
	case []byte:
		out := make([]byte, len(d))
		copy(out, d)
		return out
	case []int:
		out := make([]int, len(d))
		copy(out, d)
		return out
	case Cloner:
		return d.CloneData()
	default:
		return v // scalars and immutable values pass through
	}
}

// Msg is a received message.
type Msg struct {
	Src   int // rank in the source group
	Tag   int
	Data  any
	Bytes int64
}

// pattern describes what a posted receive matches.
type pattern struct {
	commID int // source communicator identity (intra or remote)
	src    int // AnySource or a rank
	tag    int // AnyTag or a tag
}

func (pt pattern) matches(m *envelope) bool {
	if pt.commID != m.srcCommID {
		return false
	}
	if pt.src != AnySource && pt.src != m.msg.Src {
		return false
	}
	if pt.tag != AnyTag && pt.tag != m.msg.Tag {
		return false
	}
	return true
}

// envelope is a message in flight or in an inbox.
type envelope struct {
	srcCommID int
	msg       *Msg
}

// recvReq is a posted (possibly pending) receive.
type recvReq struct {
	pat  pattern
	msg  *Msg
	done *sim.Signal
}

// endpoint is the per-rank mailbox and identity inside a communicator.
type endpoint struct {
	comm  *Comm
	rank  int
	node  *platform.Node
	inbox []*envelope
	posts []*recvReq // posted receives in order
}

// deliver matches an arriving envelope against posted receives or stores
// it. Runs in kernel context.
func (ep *endpoint) deliver(env *envelope) {
	for i, rr := range ep.posts {
		if rr.pat.matches(env) {
			ep.posts = append(ep.posts[:i], ep.posts[i+1:]...)
			*rr.msg = *env.msg
			rr.done.Fire()
			return
		}
	}
	ep.inbox = append(ep.inbox, env)
}

// post registers a receive, matching an inbox message first if possible.
func (ep *endpoint) post(pat pattern) *recvReq {
	rr := &recvReq{pat: pat, msg: new(Msg), done: sim.NewSignal(ep.comm.cluster.K)}
	for i, env := range ep.inbox {
		if pat.matches(env) {
			ep.inbox = append(ep.inbox[:i], ep.inbox[i+1:]...)
			*rr.msg = *env.msg
			rr.done.Fire()
			return rr
		}
	}
	ep.posts = append(ep.posts, rr)
	return rr
}

// Comm is an intra-communicator: an ordered group of ranks.
type Comm struct {
	cluster *platform.Cluster
	id      int
	eps     []*endpoint
	parent  *Intercomm // non-nil on spawned communicators
	procs   []*sim.Proc

	coll    *collState  // current collective rendezvous, if any
	mergeSt *mergeState // in-progress IntercommMerge, if any
}

var nextCommID int

// NewWorld creates a world communicator of size len(nodes) bound to the
// given nodes (rank i on nodes[i]). It does not start any processes; use
// Start or bind ranks manually with RankCtx.
func NewWorld(c *platform.Cluster, nodes []*platform.Node) *Comm {
	nextCommID++
	comm := &Comm{cluster: c, id: nextCommID}
	for i, n := range nodes {
		comm.eps = append(comm.eps, &endpoint{comm: comm, rank: i, node: n})
	}
	return comm
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.eps) }

// ID returns the communicator's unique identity.
func (c *Comm) ID() int { return c.id }

// Node returns the node rank r is bound to.
func (c *Comm) Node(r int) *platform.Node { return c.eps[r].node }

// Nodes returns the node list in rank order.
func (c *Comm) Nodes() []*platform.Node {
	out := make([]*platform.Node, len(c.eps))
	for i, ep := range c.eps {
		out[i] = ep.node
	}
	return out
}

// MinSpeed returns the slowest execution speed among the communicator's
// nodes as reported by speedOf (non-positive reports are ignored), or
// 1.0 when no node reports one. Lockstep iterative applications advance
// at the pace of their slowest node, so step loops divide per-iteration
// compute time by this factor.
func (c *Comm) MinSpeed(speedOf func(*platform.Node) float64) float64 {
	min := 1.0
	found := false
	for _, ep := range c.eps {
		s := speedOf(ep.node)
		if s <= 0 {
			continue
		}
		if !found || s < min {
			min = s
			found = true
		}
	}
	return min
}

// Parent returns the intercommunicator to the spawning group, or nil for
// an original world (MPI_Comm_get_parent == MPI_COMM_NULL).
func (c *Comm) Parent() *Intercomm { return c.parent }

// Cluster returns the hardware this communicator runs on.
func (c *Comm) Cluster() *platform.Cluster { return c.cluster }

// Start spawns one simulated process per rank running main, and returns
// the rank handles. Completion can be observed via Counter or the procs.
func (c *Comm) Start(namePrefix string, main func(r *Rank)) []*Rank {
	ranks := make([]*Rank, c.Size())
	for i := range c.eps {
		r := &Rank{comm: c, rank: i}
		ranks[i] = r
		r.proc = c.cluster.K.Spawn(fmt.Sprintf("%s/r%d", namePrefix, i), func(p *sim.Proc) {
			main(r)
		})
		c.procs = append(c.procs, r.proc)
	}
	return ranks
}

// Procs returns the simulated processes started for this communicator.
func (c *Comm) Procs() []*sim.Proc { return c.procs }

// Intercomm connects a local group to a remote group, as produced by
// CommSpawn on the parent side and Parent() on the child side.
type Intercomm struct {
	local  *Comm
	remote *Comm
}

// RemoteSize returns the size of the remote group.
func (ic *Intercomm) RemoteSize() int { return ic.remote.Size() }

// flipped returns the intercomm as seen from the other side.
func (ic *Intercomm) flipped() *Intercomm { return &Intercomm{local: ic.remote, remote: ic.local} }
