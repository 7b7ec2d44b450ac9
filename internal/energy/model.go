// Package energy models per-node power draw and integrates it over
// simulated time. The model follows the machine-class shape of
// energy-efficient cloud simulators (cloudsim_eec): every node carries a
// Profile with discrete P-states for active compute (power draw plus a
// MIPS-like relative speed) and S-states for sleep (power draw plus a
// wake-transition latency). An Accountant subscribes to node
// allocate/release and job resize transitions and maintains the exact
// piecewise-constant power integral per node and per job, which is what
// the rigid-vs-malleable energy experiments report.
package energy

import (
	"fmt"

	"repro/internal/sim"
)

// PState is one active (compute) power state: the node's draw while a
// job occupies it and the relative execution speed at that state.
// Index 0 is the highest-performance state (P0).
type PState struct {
	PowerW float64
	Speed  float64 // MIPS-like factor relative to the reference machine (P0 == 1.0)
}

// SState is one sleep state: the residual draw while the node is powered
// down and the latency to wake it back to active service. Index 0 is the
// shallowest sleep; deeper states draw less but wake slower.
type SState struct {
	PowerW      float64
	WakeLatency sim.Time
}

// Profile is the power model of one machine class.
type Profile struct {
	// Class names the machine class ("xeon-e5-2670", "arm-efficiency", ...).
	Class string
	// IdleW is the draw of a powered-on node with no job (the C-state
	// floor of an idle OS, before any sleep state is entered).
	IdleW float64
	// PStates are the active states, P0 first. A node running a job is
	// charged at one of these.
	PStates []PState
	// SStates are the sleep states, shallowest first. An idle node with
	// sleep enabled is charged at one of these after its idle timeout.
	SStates []SState
	// OffW is the residual draw of a powered-off node (S5): the BMC and
	// PSU standby load. Zero models a node whose feed is cut entirely.
	OffW float64
	// BootLatency is the time a powered-off node needs for a full boot
	// back to service. Zero falls back to twice the deepest S-state's
	// wake latency (see BootDelay) so profiles written before the off
	// state existed keep working.
	BootLatency sim.Time
	// Thermal is the class's thermal envelope; the zero value disables
	// thermal DVFS (no temperature is tracked and no throttling occurs).
	Thermal Thermal
}

// Validate reports whether the profile is usable: at least one P-state
// and one S-state, every P-state speed positive and non-increasing from
// P0, monotone non-increasing draw across both ladders. Speeds divide
// step times once DVFS coupling is active, so a zero or negative speed
// (or a deeper state that runs faster than a shallower one) would mean
// divide-by-zero or time travel downstream.
func (p Profile) Validate() error {
	if len(p.PStates) == 0 {
		return fmt.Errorf("energy: profile %q has no P-states", p.Class)
	}
	if len(p.SStates) == 0 {
		return fmt.Errorf("energy: profile %q has no S-states", p.Class)
	}
	for i, ps := range p.PStates {
		if ps.Speed <= 0 {
			return fmt.Errorf("energy: profile %q P%d speed %.2f must be positive", p.Class, i, ps.Speed)
		}
	}
	for i := 1; i < len(p.PStates); i++ {
		if p.PStates[i].PowerW > p.PStates[i-1].PowerW {
			return fmt.Errorf("energy: profile %q P-state %d draws more than P%d", p.Class, i, i-1)
		}
		if p.PStates[i].Speed > p.PStates[i-1].Speed {
			return fmt.Errorf("energy: profile %q P-state %d runs faster than P%d", p.Class, i, i-1)
		}
	}
	for i := 1; i < len(p.SStates); i++ {
		if p.SStates[i].PowerW > p.SStates[i-1].PowerW {
			return fmt.Errorf("energy: profile %q S-state %d draws more than S%d", p.Class, i, i-1)
		}
		if p.SStates[i].WakeLatency < p.SStates[i-1].WakeLatency {
			return fmt.Errorf("energy: profile %q S-state %d wakes faster than S%d", p.Class, i, i-1)
		}
	}
	if p.IdleW < p.SStates[0].PowerW {
		return fmt.Errorf("energy: profile %q idles below its shallowest sleep", p.Class)
	}
	deepest := p.SStates[len(p.SStates)-1]
	if p.OffW < 0 {
		return fmt.Errorf("energy: profile %q has negative off draw", p.Class)
	}
	if p.OffW > deepest.PowerW {
		return fmt.Errorf("energy: profile %q draws more off than in its deepest sleep", p.Class)
	}
	if p.BootLatency != 0 && p.BootLatency < deepest.WakeLatency {
		return fmt.Errorf("energy: profile %q boots faster than its deepest sleep wakes", p.Class)
	}
	if err := p.Thermal.Validate(); err != nil {
		return fmt.Errorf("energy: profile %q: %v", p.Class, err)
	}
	return nil
}

// ActiveW returns the draw at P-state ps, clamping out-of-range indices
// to the nearest defined state.
func (p *Profile) ActiveW(ps int) float64 { return p.PStates[p.clampP(ps)].PowerW }

// SpeedAt returns the relative execution speed at P-state ps.
func (p *Profile) SpeedAt(ps int) float64 { return p.PStates[p.clampP(ps)].Speed }

// SleepW returns the draw at S-state ss, clamping out-of-range indices.
func (p *Profile) SleepW(ss int) float64 { return p.SStates[p.clampS(ss)].PowerW }

// WakeLatency returns the wake latency from S-state ss.
func (p *Profile) WakeLatency(ss int) sim.Time { return p.SStates[p.clampS(ss)].WakeLatency }

// BootDelay returns the full-boot time from the powered-off state:
// BootLatency when set, otherwise twice the deepest S-state's wake
// latency — off is strictly below the deepest sleep rung.
func (p *Profile) BootDelay() sim.Time {
	if p.BootLatency != 0 {
		return p.BootLatency
	}
	return 2 * p.SStates[len(p.SStates)-1].WakeLatency
}

func (p *Profile) clampP(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(p.PStates) {
		return len(p.PStates) - 1
	}
	return i
}

func (p *Profile) clampS(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(p.SStates) {
		return len(p.SStates) - 1
	}
	return i
}

// DefaultProfile models the paper's Marenostrum 3 node (two 8-core Xeon
// E5-2670, 115 W TDP each): ~330 W under load, ~120 W idle, an S3-style
// suspend at 9 W with a 2 s resume, and a deep S5 state at 4 W that
// needs a full 30 s boot.
func DefaultProfile() Profile {
	return Profile{
		Class: "xeon-e5-2670",
		IdleW: 120,
		PStates: []PState{
			{PowerW: 330, Speed: 1.0},
			{PowerW: 260, Speed: 0.8},
			{PowerW: 200, Speed: 0.6},
			{PowerW: 150, Speed: 0.4},
		},
		SStates: []SState{
			{PowerW: 9, WakeLatency: 2 * sim.Second},
			{PowerW: 4, WakeLatency: 30 * sim.Second},
		},
		BootLatency: 150 * sim.Second,
	}
}

// EfficiencyProfile models a low-power machine class (ARM-style): about
// a third of the Xeon's draw at 60% of its speed. Used by heterogeneous
// cluster scenarios.
func EfficiencyProfile() Profile {
	return Profile{
		Class: "arm-efficiency",
		IdleW: 40,
		PStates: []PState{
			{PowerW: 110, Speed: 0.6},
			{PowerW: 80, Speed: 0.45},
			{PowerW: 55, Speed: 0.3},
		},
		SStates: []SState{
			{PowerW: 3, WakeLatency: 1 * sim.Second},
			{PowerW: 1, WakeLatency: 15 * sim.Second},
		},
		BootLatency: 60 * sim.Second,
	}
}

// Uniform returns n copies of profile, the profile list of a homogeneous
// cluster.
func Uniform(profile Profile, n int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = profile
	}
	return out
}
