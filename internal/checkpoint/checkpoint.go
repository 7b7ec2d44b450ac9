// Package checkpoint models the Checkpoint/Restart reconfiguration
// baseline the paper compares the DMR API against (Figure 1): to change
// the process count, the application saves its state to the parallel
// filesystem, terminates, is resubmitted at the new size, and reloads
// the state from disk — paying the PFS round trip plus requeue and
// relaunch costs that in-memory redistribution avoids.
package checkpoint

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sim"
)

// Checkpointer writes and reads checkpoint streams through the cluster's
// shared parallel filesystem. The PFS serves a fixed number of
// concurrent streams (service slots), each at an equal share of the
// aggregate bandwidth; additional streams queue.
type Checkpointer struct {
	cl *platform.Cluster
}

// New returns a checkpointer over the cluster's PFS.
func New(cl *platform.Cluster) *Checkpointer { return &Checkpointer{cl: cl} }

// shareTime is the in-service time for one stream of size bytes while k
// streams compete for the PFS. The aggregate bandwidth is split evenly
// over the active streams, of which there are at most PFSConcurrent (the
// surplus queues rather than shares), so a wave narrower than the slot
// count runs each stream faster than the full-contention floor.
func (c *Checkpointer) shareTime(bytes int64, k int) sim.Time {
	if k < 1 {
		k = 1
	}
	if k > c.cl.Cfg.PFSConcurrent {
		k = c.cl.Cfg.PFSConcurrent
	}
	rate := c.cl.Cfg.PFSBytesPS / float64(k)
	return c.cl.Cfg.PFSOpenCost + sim.Seconds(float64(bytes)/rate)
}

// transfer moves one stream of size bytes through the PFS, blocking p
// for the queueing plus transfer time.
func (c *Checkpointer) transfer(p *sim.Proc, bytes int64) {
	c.cl.PFS.Acquire(p)
	// Yield once before sampling the sharer count: peers entering the PFS
	// at the same instant register (in a slot or parked) ahead of this
	// zero-length resume, so the count below is the wave's true width
	// rather than an arrival-order prefix.
	p.Sleep(0)
	k := c.cl.PFS.InUse() + c.cl.PFS.Waiting()
	p.Sleep(c.shareTime(bytes, k))
	c.cl.PFS.Release()
}

// Write saves one process's share of the checkpoint, blocking p for the
// queueing plus transfer time.
func (c *Checkpointer) Write(p *sim.Proc, bytes int64) { c.transfer(p, bytes) }

// Read loads one process's share of a checkpoint, blocking p for the
// queueing plus transfer time.
func (c *Checkpointer) Read(p *sim.Proc, bytes int64) { c.transfer(p, bytes) }

// EstimateFullResize returns the modeled time of a complete C/R resize
// of a job from oldP to newP processes with the given total state size:
// oldP parallel writers, a requeue/scheduling delay, newP process
// launches, and newP parallel readers. Useful for analytic cross-checks
// of the simulated flow.
func (c *Checkpointer) EstimateFullResize(totalBytes int64, oldP, newP int, requeue sim.Time) sim.Time {
	write := c.phaseTime(totalBytes, oldP)
	read := c.phaseTime(totalBytes, newP)
	launch := c.cl.Cfg.SpawnBase + c.cl.Cfg.SpawnPerProc*sim.Time(newP)
	return write + requeue + launch + read
}

// phaseTime is the duration of p equal streams moving totalBytes through
// the slot-limited PFS: full waves at slot-count contention, plus the
// final partial wave — if any — priced at its own narrower width, where
// the survivors split the aggregate bandwidth among fewer streams.
func (c *Checkpointer) phaseTime(totalBytes int64, p int) sim.Time {
	if p <= 0 {
		return 0
	}
	share := totalBytes / int64(p)
	slots := c.cl.Cfg.PFSConcurrent
	t := sim.Time(p/slots) * c.shareTime(share, slots)
	if rem := p % slots; rem > 0 {
		t += c.shareTime(share, rem)
	}
	return t
}

func (c *Checkpointer) String() string {
	return fmt.Sprintf("pfs{%.0f MB/s aggregate, %d slots, %v open}",
		c.cl.Cfg.PFSBytesPS/1e6, c.cl.Cfg.PFSConcurrent, c.cl.Cfg.PFSOpenCost)
}
