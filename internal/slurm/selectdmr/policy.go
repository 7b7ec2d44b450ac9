// Package selectdmr implements the paper's Slurm resource-selection
// plug-in for reconfiguration decisions — Algorithm 1 — with its three
// degrees of scheduling freedom (§IV):
//
//  1. Request an action: the application constrains the verdict through
//     the min/max bounds of the request.
//  2. Preferred number of nodes: met when feasible; a lone job in the
//     system is instead expanded to its maximum.
//  3. Wide optimization: expand when nothing in the queue could use the
//     free resources, shrink when releasing nodes lets a queued job run
//     (that job is boosted to maximum priority).
package selectdmr

import "repro/internal/slurm"

// Policy is the Algorithm 1 selection plug-in.
type Policy struct {
	// DisableWide turns off the wide-optimization branch (lines 13-24),
	// leaving only preferred-size handling. Used by the policy ablation.
	DisableWide bool
	// ClassAware prices every expand verdict by the machine classes the
	// extra nodes would come from: on a heterogeneous fleet the coupled
	// step loop runs at its slowest rank, so growing a fast-class job
	// onto efficiency-class nodes can reduce effective throughput while
	// burning more power. Unprofitable expansions are stepped down the
	// factor chain to the widest profitable size, or vetoed.
	ClassAware bool
}

// New returns the full Algorithm 1 plug-in.
func New() *Policy { return &Policy{} }

var _ slurm.SelectPlugin = (*Policy)(nil)

// chainUp returns the largest size reachable from cur by multiplying by
// factor that is <= limit, or cur if none.
func chainUp(cur, factor, limit int) int {
	best := cur
	for n := cur * factor; n <= limit; n *= factor {
		best = n
	}
	return best
}

// chainDown returns the smallest size reachable from cur by repeatedly
// dividing by factor that stays >= limit, or cur if no step is possible.
// Shrink steps require exact divisibility (§VII.C: resizes move to a
// multiple or divisor of the current size).
func chainDown(cur, factor, limit int) int {
	best := cur
	for n := cur; n%factor == 0; {
		n /= factor
		if n < limit || n < 1 {
			break
		}
		best = n
	}
	return best
}

// stepTo returns the factor-chain value moving cur toward want, clamped
// to [min, max]; ok is false when no move is possible.
func stepTo(cur, want, factor, min, max int) (int, bool) {
	if factor < 2 {
		factor = 2
	}
	if want > cur {
		limit := want
		if limit > max {
			limit = max
		}
		n := chainUp(cur, factor, limit)
		return n, n > cur
	}
	if want < cur {
		limit := want
		if limit < min {
			limit = min
		}
		n := chainDown(cur, factor, limit)
		return n, n < cur
	}
	return cur, false
}

// maxProcsTo implements Algorithm 1's max_procs_to(x): the largest
// factor-chain expansion toward x that the free nodes can satisfy.
func maxProcsTo(cur, x, factor, max, free int) (int, bool) {
	if factor < 2 {
		factor = 2
	}
	limit := x
	if limit > max {
		limit = max
	}
	best := cur
	for n := cur * factor; n <= limit; n *= factor {
		if n-cur > free {
			break
		}
		best = n
	}
	return best, best > cur
}

// minProcsRun implements Algorithm 1's min_procs_run(target): the
// largest factor-chain shrink of cur (i.e. the minimal release) such
// that fits(n) — "the target job can start once I run at n" — holds;
// ok is false when even shrinking to min does not admit the target.
func minProcsRun(cur, factor, min int, fits func(n int) bool) (int, bool) {
	if factor < 2 {
		factor = 2
	}
	for n := cur; n%factor == 0; {
		n /= factor
		if n < min || n < 1 {
			break
		}
		if fits(n) {
			return n, true
		}
	}
	return cur, false
}

// Decide runs Algorithm 1 for one dmr_check_status request, then — with
// ClassAware set — prices any expand verdict by the classes involved.
func (p *Policy) Decide(v *slurm.QueueView, req slurm.ResizeRequest) slurm.Decision {
	return p.classClamp(v, req, p.decide(v, req))
}

// classClamp prices an expand verdict for a heterogeneous fleet. Three
// rules, in order:
//
//   - Opportunistic growth is capped at the application's preferred
//     size and proceeds one factor step per check (see inline comment).
//   - Growth never wakes sleeping hardware: awake idle nodes burn idle
//     watts until their sleep timeout anyway (race-to-idle is free
//     throughput), but powering nodes up for sublinearly-scaling width
//     is a net energy loss.
//   - Expansion is granted only class-pure: the coupled step loop runs
//     at its slowest rank, so extras from a slower class cap the whole
//     job at that class's speed, and extras from a *faster* class are
//     capped themselves — either way some machine burns full power at
//     fractional throughput, the worst point of the energy/makespan
//     trade-off. Every extra node must be as fast as the job's current
//     slowest, none faster. Smaller chain steps draw from the job's
//     affinity order first (pickNodes), so stepping down can rescue an
//     expansion the full width spoils.
//
// Application-requested expansions (current size below the request's
// minimum) are never clamped: correctness outranks pricing.
func (p *Policy) classClamp(v *slurm.QueueView, req slurm.ResizeRequest, d slurm.Decision) slurm.Decision {
	if !p.ClassAware || d.Action != slurm.Expand {
		return d
	}
	cur := v.Job().NNodes()
	if req.MinProcs > cur {
		return d // the application demands the growth; grant as decided
	}
	factor := req.Factor
	if factor < 2 {
		factor = 2
	}
	// Opportunistic growth stops at the application's preferred size:
	// real applications scale sublinearly, so width beyond what the app
	// asked for buys little throughput at full per-node draw — on a
	// premium class that is the worst J-per-work in the fleet. Growth
	// also proceeds one factor step per check, letting the next
	// dmr_check_status reprice the wider job against the classes then
	// available instead of leaping to a width a later shrink-to-seat
	// gives straight back.
	if cap := d.NewNodes; cap > cur {
		if req.Preferred > 0 && cap > req.Preferred {
			cap = req.Preferred
		}
		if step := cur * factor; cap > step {
			cap = step
		}
		if cap = chainUp(cur, factor, cap); cap <= cur {
			return slurm.Decision{Action: slurm.NoAction}
		}
		d.NewNodes = cap
	}
	const slack = 1e-9
	pool := v.FreeNodesFor(v.Job())
	for n := d.NewNodes; n > cur; n /= factor {
		if n-cur > pool {
			// The previews clamp to the eligible free pool; an
			// unaffordable width would pass them vacuously. Step down.
			continue
		}
		if v.ExpandWakesNodes(n - cur) {
			continue // never wake sleeping hardware for opportunistic growth
		}
		curSpeed, grown, fastest := v.ExpandSpeedPreview(n - cur)
		if grown >= curSpeed-slack && fastest <= curSpeed+slack {
			if n == d.NewNodes {
				return d
			}
			return slurm.Decision{Action: slurm.Expand, NewNodes: n}
		}
	}
	return slurm.Decision{Action: slurm.NoAction}
}

// decide runs Algorithm 1 for one dmr_check_status request.
func (p *Policy) decide(v *slurm.QueueView, req slurm.ResizeRequest) slurm.Decision {
	job := v.Job()
	cur := job.NNodes()
	// Expansion affordability counts only nodes the job may actually be
	// allocated: a class-pinned job cannot grow onto another class's
	// free nodes (identical to FreeNodes for unconstrained jobs).
	free := v.FreeNodesFor(job)
	minP, maxP := req.MinProcs, req.MaxProcs
	if minP < 1 {
		minP = 1
	}
	if maxP < minP {
		maxP = minP
	}
	pending := v.PendingEligible()

	// --- Request an action (§IV-1): the application "strongly
	// suggests" a move by placing the current size outside its
	// [min, max] bounds; Slurm remains responsible for granting it.
	if minP > cur {
		if n, ok := maxProcsTo(cur, minP, req.Factor, maxP, free); ok {
			return slurm.Decision{Action: slurm.Expand, NewNodes: n}
		}
		return slurm.Decision{Action: slurm.NoAction}
	}
	if maxP < cur {
		if n, ok := stepTo(cur, maxP, req.Factor, 1, maxP); ok && n < cur {
			return slurm.Decision{Action: slurm.Shrink, NewNodes: n}
		}
		return slurm.Decision{Action: slurm.NoAction}
	}

	// --- Preferred number of nodes (Algorithm 1 lines 1-12).
	if req.Preferred > 0 {
		if req.Preferred == cur {
			// §IV-2: "If the desired size corresponds to the current
			// size, the RMS will return 'no action'" — except for a
			// lone job, which is free to take the maximum (line 2).
			// Class-aware mode holds at preferred: the app's preferred
			// size is its sweet spot, and on a heterogeneous fleet the
			// width beyond it burns premium watts for sublinear gains.
			if len(pending) == 0 && !p.ClassAware {
				if n, ok := maxProcsTo(cur, maxP, req.Factor, maxP, free); ok {
					return slurm.Decision{Action: slurm.Expand, NewNodes: n}
				}
			}
			return slurm.Decision{Action: slurm.NoAction}
		}
		if len(pending) == 0 {
			// Line 2: the only job in the system — take the maximum.
			// Class-aware mode instead settles at the preferred size
			// from either side, releasing opportunistic width so the
			// freed nodes can reach their sleep state.
			if p.ClassAware && req.Preferred < cur {
				if n, ok := stepTo(cur, req.Preferred, req.Factor, minP, maxP); ok && n < cur {
					return slurm.Decision{Action: slurm.Shrink, NewNodes: n}
				}
				return slurm.Decision{Action: slurm.NoAction}
			}
			if n, ok := maxProcsTo(cur, maxP, req.Factor, maxP, free); ok {
				return slurm.Decision{Action: slurm.Expand, NewNodes: n}
			}
			return slurm.Decision{Action: slurm.NoAction}
		}
		if req.Preferred > cur {
			// Line 6: can I expand to preferred?
			if n, ok := maxProcsTo(cur, req.Preferred, req.Factor, maxP, free); ok {
				return slurm.Decision{Action: slurm.Expand, NewNodes: n}
			}
		} else {
			// Line 10: can I shrink to preferred?
			if n, ok := stepTo(cur, req.Preferred, req.Factor, minP, maxP); ok && n < cur {
				return slurm.Decision{Action: slurm.Shrink, NewNodes: n}
			}
		}
		// Fall through to wide optimization (line 13).
	}

	// --- Wide optimization (lines 13-24).
	if p.DisableWide {
		return slurm.Decision{Action: slurm.NoAction}
	}
	if len(pending) > 0 {
		// Line 15: can another job run with (some of) my resources? The
		// accounting is class-aware: a class-constrained target only
		// counts free nodes of its class, and a shrink only helps by the
		// released nodes the target may actually use. When the factor
		// chain has no legal shrink step at all (size not divisible, or
		// the step lands below the minimum), minProcsRun fails for every
		// target — skip the queue scan entirely rather than proving it
		// once per pending job.
		factor := req.Factor
		if factor < 2 {
			factor = 2
		}
		canShrink := cur%factor == 0 && cur/factor >= minP && cur/factor >= 1
		if canShrink {
			for _, t := range pending {
				if t.ID == job.ID {
					continue
				}
				tn := v.NeedNodes(t)
				tFree := v.FreeNodesFor(t)
				if tn <= tFree {
					continue // it can already run; the scheduler will start it
				}
				fits := func(n int) bool { return tFree+v.ReleasedEligible(t, n) >= tn }
				if n, ok := minProcsRun(cur, req.Factor, minP, fits); ok {
					return slurm.Decision{Action: slurm.Shrink, NewNodes: n, TargetJob: t.ID}
				}
			}
		}
		// Line 20: no pending job can be helped — grow toward the max.
		if n, ok := maxProcsTo(cur, maxP, req.Factor, maxP, free); ok {
			return slurm.Decision{Action: slurm.Expand, NewNodes: n}
		}
		return slurm.Decision{Action: slurm.NoAction}
	}
	// Line 22: empty queue — expand to the job maximum.
	if n, ok := maxProcsTo(cur, maxP, req.Factor, maxP, free); ok {
		return slurm.Decision{Action: slurm.Expand, NewNodes: n}
	}
	return slurm.Decision{Action: slurm.NoAction}
}
