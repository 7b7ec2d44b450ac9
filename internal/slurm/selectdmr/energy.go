package selectdmr

import "repro/internal/slurm"

// EnergyAware is the energy-biased variant of the Algorithm 1 plug-in.
// Plain Algorithm 1 maximizes throughput: with an empty queue it expands
// every flexible job to its maximum, keeping the whole machine lit. The
// energy-aware variant inverts that bias when there is no throughput to
// buy:
//
//   - Empty queue: shrink flexible jobs toward their minimum so the
//     freed nodes hit their idle timeout and drop to a sleep state.
//   - Sparse queue (fewer than DenseQueue eligible pending jobs): run
//     Algorithm 1 for shrinks (releasing nodes still lets queued work
//     start) but veto its expands — woken nodes would outlive the
//     trickle of arrivals.
//   - Dense queue: defer to full Algorithm 1; with arrivals piling up,
//     finishing the backlog sooner beats keeping nodes dark.
//
// Application-requested actions (a current size outside the request's
// [min, max] bounds) are always honored via the base policy: correctness
// of the running application outranks the energy bias.
type EnergyAware struct {
	base Policy
}

// DenseQueue is the eligible-pending-job count at or above which the
// queue counts as dense and full Algorithm 1 takes over: the arrival
// density at which the energy bias yields to throughput optimization.
const DenseQueue = 3

// NewEnergyAware returns the energy-aware plug-in over a configured
// Algorithm 1 core (the zero Policy is plain Algorithm 1; set
// ClassAware for class-aware expansion pricing).
func NewEnergyAware(base Policy) *EnergyAware { return &EnergyAware{base: base} }

var _ slurm.SelectPlugin = (*EnergyAware)(nil)

// Decide runs the energy-biased policy for one dmr_check_status request.
func (p *EnergyAware) Decide(v *slurm.QueueView, req slurm.ResizeRequest) slurm.Decision {
	job := v.Job()
	cur := job.NNodes()
	minP, maxP := req.MinProcs, req.MaxProcs
	if minP < 1 {
		minP = 1
	}
	if maxP < minP {
		maxP = minP
	}
	// Application-constrained requests bypass the energy bias.
	if minP > cur || maxP < cur {
		return p.base.Decide(v, req)
	}

	pending := v.PendingEligible()
	if len(pending) >= DenseQueue {
		return p.base.Decide(v, req)
	}
	if len(pending) == 0 {
		// Nothing to run next: release as much as the factor chain
		// allows so the freed nodes can power down.
		if n, ok := stepTo(cur, minP, req.Factor, minP, maxP); ok && n < cur {
			return slurm.Decision{Action: slurm.Shrink, NewNodes: n}
		}
		return slurm.Decision{Action: slurm.NoAction}
	}
	// Sparse queue: keep Algorithm 1's shrink-to-admit branch, veto its
	// expands.
	d := p.base.Decide(v, req)
	if d.Action == slurm.Expand {
		return slurm.Decision{Action: slurm.NoAction}
	}
	return d
}
