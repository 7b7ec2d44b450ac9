package energy

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// NodeState is the power-relevant state of one node.
type NodeState int

// Node power states: powered-on idle, actively computing for a job, in
// a sleep state, powered off entirely (S5), or mid-boot on the way back
// to service. Booting covers both a full boot from Off and a wake
// transition started ahead of an allocation (wake-ahead): the node
// already draws boot power but cannot run work until the transition
// completes. Failed is a crashed node awaiting repair: dead hardware at
// residual draw, unable to run work or sleep until FinishRepair brings
// it back to idle.
const (
	Idle NodeState = iota
	Active
	Sleeping
	Off
	Booting
	Failed
)

func (s NodeState) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case Active:
		return "ACTIVE"
	case Sleeping:
		return "SLEEPING"
	case Off:
		return "OFF"
	case Booting:
		return "BOOTING"
	case Failed:
		return "FAILED"
	}
	return "?"
}

// nodeMeter integrates one node's power draw. The integral is exact:
// power is piecewise constant, and every transition first settles the
// elapsed interval at the old draw. With a thermal envelope attached the
// meter additionally carries the node's temperature (advanced in closed
// form over the same piecewise-constant intervals) and the thermal
// P-state floor the envelope currently forces.
type nodeMeter struct {
	profile Profile
	state   NodeState
	pstate  int // active P-state index requested by the governor
	sstate  int // sleep S-state index while sleeping
	jobID   int // job charged for the node's draw; 0 = unattributed
	powerW  float64
	lastT   sim.Time
	joules  float64
	wakes   int

	// Thermal DVFS state (profile.Thermal.Enabled() only).
	thermal  bool
	tempC    float64 // temperature at lastT
	tstate   int     // thermal P-state floor (0 = unconstrained)
	thermGen int     // pending-crossing timer generation
}

// effP is the P-state the node actually runs at: the deeper of the
// governor's request and the thermal floor.
func (m *nodeMeter) effP() int {
	if m.tstate > m.pstate {
		return m.tstate
	}
	return m.pstate
}

// Accountant owns the cluster's energy ledger: per-node integrals,
// per-job attributed energy, and the instantaneous total draw. All
// methods must be called from simulation (kernel or process) context so
// that k.Now() is meaningful.
type Accountant struct {
	k         *sim.Kernel
	nodes     []nodeMeter
	jobs      map[int]float64
	totalW    float64
	thermalOn bool // any metered profile carries a thermal envelope

	// thermalSec attributes, per job, the node-seconds its allocation
	// spent under a binding thermal floor (the thermal_throttled_s
	// accounting column). Nil unless a thermal envelope is attached.
	thermalSec map[int]float64

	// flushedAt/flushedOnce memoize Flush: at one instant the first
	// sweep settles every meter and later sweeps are no-ops.
	flushedAt   sim.Time
	flushedOnce bool

	// Pending coalesced power sample: transitions at one timestamp are
	// folded into a single observation at the settled draw, published
	// when the clock first moves past it (or at FlushSamples).
	sampleArmed bool
	sampleT     sim.Time
	sampleW     float64

	// powerSubs observe the total draw after every power-state
	// transition, coalesced per timestamp: a burst of transitions at one
	// instant (a multi-node allocation, a governor throttle sweep) yields
	// one sample at the settled draw instead of one per node (metrics
	// power trace, telemetry power gauge).
	powerSubs []func(t sim.Time, totalW float64)

	// OnThermal, when set, observes every thermal DVFS step: node index,
	// whether the floor deepened (throttle) or cleared (restore), and
	// the new floor. The controller logs it and re-prices the owning job.
	OnThermal func(node int, throttled bool, floor int)

	// thermalSubs observe (hottest node °C, count of nodes under a
	// binding thermal floor) after every thermal step (metrics
	// temperature trace).
	thermalSubs []func(t sim.Time, maxC float64, throttled int)
}

// SubscribePowerSamples registers fn to observe every coalesced power
// sample. Subscribers are invoked in registration order; registering
// never displaces an earlier subscriber.
func (a *Accountant) SubscribePowerSamples(fn func(t sim.Time, totalW float64)) {
	a.powerSubs = append(a.powerSubs, fn)
}

// SubscribeThermalSamples registers fn to observe every thermal sample.
func (a *Accountant) SubscribeThermalSamples(fn func(t sim.Time, maxC float64, throttled int)) {
	a.thermalSubs = append(a.thermalSubs, fn)
}

// New builds an accountant for len(profiles) nodes, all starting idle at
// the kernel's current time. Invalid profiles panic: a misconfigured
// power model would silently corrupt every downstream measurement.
func New(k *sim.Kernel, profiles []Profile) *Accountant {
	a := &Accountant{k: k, jobs: make(map[int]float64)}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			panic(fmt.Sprintf("energy: node %d: %v", i, err))
		}
		m := nodeMeter{profile: p, state: Idle, powerW: p.IdleW, lastT: k.Now()}
		if p.Thermal.Enabled() {
			m.thermal = true
			m.tempC = p.Thermal.AmbientC
			a.thermalOn = true
		}
		a.nodes = append(a.nodes, m)
		a.totalW += p.IdleW
	}
	if a.thermalOn {
		a.thermalSec = make(map[int]float64)
	}
	return a
}

// Nodes returns how many nodes the accountant meters.
func (a *Accountant) Nodes() int { return len(a.nodes) }

// advance settles node i's integral — and, with a thermal envelope, its
// temperature and throttled-time attribution — up to now at its current
// draw.
func (a *Accountant) advance(i int) {
	m := &a.nodes[i]
	now := a.k.Now()
	if now > m.lastT {
		j := m.powerW * (now - m.lastT).Seconds()
		m.joules += j
		if m.jobID != 0 {
			a.jobs[m.jobID] += j
		}
		if m.thermal {
			if m.tstate > m.pstate && m.state == Active && m.jobID != 0 {
				a.thermalSec[m.jobID] += (now - m.lastT).Seconds()
			}
			m.tempC = m.profile.Thermal.TempAfter(m.tempC, m.powerW, now-m.lastT)
		}
	}
	m.lastT = now
}

// setDraw finalizes a transition of node i to the given draw and
// publishes the new cluster total. Samples are coalesced per timestamp:
// an earlier instant's pending sample is emitted the moment a transition
// lands at a later one, and the current instant's sample keeps absorbing
// same-time transitions until then.
func (a *Accountant) setDraw(i int, w float64) {
	m := &a.nodes[i]
	a.totalW += w - m.powerW
	m.powerW = w
	if len(a.powerSubs) == 0 {
		return
	}
	now := a.k.Now()
	if a.sampleArmed && a.sampleT != now {
		a.publishPower(a.sampleT, a.sampleW)
	}
	a.sampleArmed, a.sampleT, a.sampleW = true, now, a.totalW
}

// publishPower fans one settled power sample out to every subscriber.
func (a *Accountant) publishPower(t sim.Time, w float64) {
	for _, fn := range a.powerSubs {
		fn(t, w)
	}
}

// FlushSamples publishes the pending coalesced power sample, if any. Call
// it after the simulation drains (no further transition can land at the
// final timestamp) so the trace includes the last settled draw.
func (a *Accountant) FlushSamples() {
	if a.sampleArmed {
		a.publishPower(a.sampleT, a.sampleW)
	}
	a.sampleArmed = false
}

// NodeActive marks node i allocated to jobID at P-state ps, returning
// the wake latency the allocation pays (non-zero when the node was
// sleeping). During the wake transition the node already draws active
// power without doing useful work; the caller is expected to delay the
// job's launch by the returned latency.
func (a *Accountant) NodeActive(i, jobID, ps int) sim.Time {
	a.advance(i)
	m := &a.nodes[i]
	var wake sim.Time
	switch m.state {
	case Sleeping:
		wake = m.profile.WakeLatency(m.sstate)
		m.wakes++
	case Off:
		wake = m.profile.BootDelay()
		m.wakes++
	case Booting:
		// The boot was already started (wake-ahead or a provision in
		// flight); the remaining transition time is the caller's to
		// track, since the meter does not record boot deadlines.
	}
	m.state = Active
	m.pstate = m.profile.clampP(ps)
	m.jobID = jobID
	// A hot node allocates at its thermal floor: the envelope does not
	// reset with the job, so the new owner inherits the throttle.
	a.setDraw(i, m.profile.ActiveW(m.effP()))
	a.armThermal(i)
	return wake
}

// NodeIdle marks node i released: powered on, no job, no attribution.
func (a *Accountant) NodeIdle(i int) {
	a.advance(i)
	m := &a.nodes[i]
	m.state = Idle
	m.jobID = 0
	a.setDraw(i, m.profile.IdleW)
	a.armThermal(i)
}

// NodeSleep drops an idle node into S-state ss, or steps an
// already-sleeping node DEEPER (the idle ladder: the longer a node
// stays idle, the deeper it sinks). A shallower target on a sleeping
// node is ignored — resetting the ladder would need a wake — and an
// allocated node cannot sleep at all.
func (a *Accountant) NodeSleep(i, ss int) {
	m := &a.nodes[i]
	ss = m.profile.clampS(ss)
	switch {
	case m.state == Idle:
	case m.state == Sleeping && ss > m.sstate:
	default:
		return
	}
	a.advance(i)
	m.state = Sleeping
	m.sstate = ss
	a.setDraw(i, m.profile.SleepW(ss))
	a.armThermal(i)
}

// NodeOff powers node i down entirely (S5): zero-ish residual draw, a
// full boot to bring it back. Only an idle or sleeping node can power
// off; allocated and mid-boot nodes are left untouched.
func (a *Accountant) NodeOff(i int) {
	m := &a.nodes[i]
	if m.state != Idle && m.state != Sleeping {
		return
	}
	a.advance(i)
	m.state = Off
	m.jobID = 0
	a.setDraw(i, m.profile.OffW)
	a.armThermal(i)
}

// StartBoot begins bringing node i back toward powered-on idle from a
// sleep state or from off, returning the transition latency. During the
// transition the node draws full active power without doing useful work
// (the boot burn); the caller schedules FinishBoot after the returned
// latency, or allocates the node mid-boot with NodeActive and tracks the
// remaining delay itself. No-op (returning 0) from any other state.
func (a *Accountant) StartBoot(i int) sim.Time {
	m := &a.nodes[i]
	var lat sim.Time
	switch m.state {
	case Sleeping:
		lat = m.profile.WakeLatency(m.sstate)
	case Off:
		lat = m.profile.BootDelay()
	default:
		return 0
	}
	a.advance(i)
	m.wakes++
	m.state = Booting
	m.jobID = 0
	a.setDraw(i, m.profile.ActiveW(0))
	a.armThermal(i)
	return lat
}

// FinishBoot completes a boot transition: the node lands powered-on
// idle. No-op unless the node is mid-boot, so a stale completion timer
// for a node that was allocated or crashed during its boot is safe.
func (a *Accountant) FinishBoot(i int) {
	m := &a.nodes[i]
	if m.state != Booting {
		return
	}
	a.advance(i)
	m.state = Idle
	m.jobID = 0
	a.setDraw(i, m.profile.IdleW)
	a.armThermal(i)
}

// ReleaseBooting detaches node i from its job while the node is still
// inside its wake window (a shrink or completion racing the boot): the
// node keeps drawing boot power, unattributed, until FinishBoot. No-op
// unless the node is active.
func (a *Accountant) ReleaseBooting(i int) {
	m := &a.nodes[i]
	if m.state != Active {
		return
	}
	a.advance(i)
	m.state = Booting
	m.jobID = 0
	a.setDraw(i, m.profile.ActiveW(0))
	a.armThermal(i)
}

// NodeFail crashes node i: whatever powered state it was in (idle,
// active, sleeping, mid-boot), the hardware is now dead at the residual
// off draw, attributed to nobody, until FinishRepair. No-op for nodes
// already off or failed — unpowered hardware has nothing left to crash.
func (a *Accountant) NodeFail(i int) {
	m := &a.nodes[i]
	if m.state == Off || m.state == Failed {
		return
	}
	a.advance(i)
	m.state = Failed
	m.jobID = 0
	a.setDraw(i, m.profile.OffW)
	a.armThermal(i)
}

// FinishRepair completes node i's repair: the node comes back powered-on
// idle (the repair action includes the reboot). No-op unless failed.
func (a *Accountant) FinishRepair(i int) {
	m := &a.nodes[i]
	if m.state != Failed {
		return
	}
	a.advance(i)
	m.state = Idle
	m.jobID = 0
	a.setDraw(i, m.profile.IdleW)
	a.armThermal(i)
}

// AbortBoot cancels an in-flight boot whose hardware failed to come up
// (an elastic provision strike): the node drops straight back to off.
// Unlike NodeFail this is not a crash — the node was never in service —
// so it stays schedulable for a later retry. No-op unless mid-boot.
func (a *Accountant) AbortBoot(i int) {
	m := &a.nodes[i]
	if m.state != Booting {
		return
	}
	a.advance(i)
	m.state = Off
	m.jobID = 0
	a.setDraw(i, m.profile.OffW)
	a.armThermal(i)
}

// Reattribute moves node i's ongoing draw to a different job without a
// power-state change — the expand dance parks nodes on a resizer job and
// later grafts them onto the target job.
func (a *Accountant) Reattribute(i, jobID int) {
	a.advance(i)
	a.nodes[i].jobID = jobID
}

// SetPState moves an active node to P-state ps (a governor DVFS step).
// A binding thermal floor deeper than ps keeps the node at the floor.
func (a *Accountant) SetPState(i, ps int) {
	m := &a.nodes[i]
	if m.state != Active {
		return
	}
	a.advance(i)
	m.pstate = m.profile.clampP(ps)
	a.setDraw(i, m.profile.ActiveW(m.effP()))
	a.armThermal(i)
}

// State returns node i's current power state.
func (a *Accountant) State(i int) NodeState { return a.nodes[i].state }

// PStateOf returns node i's active P-state index (meaningful while the
// node is active; the last active state otherwise).
func (a *Accountant) PStateOf(i int) int { return a.nodes[i].pstate }

// NodePowerW returns node i's instantaneous draw. Power capping projects
// allocation and throttle deltas against this.
func (a *Accountant) NodePowerW(i int) float64 { return a.nodes[i].powerW }

// WakePreview returns the wake latency an allocation of node i would pay
// right now: the current S-state's wake latency while sleeping, the full
// boot delay while off, zero otherwise. Backfill uses it to bound a
// candidate's true launch time without committing the allocation. For a
// node already mid-boot it returns zero — the remaining transition time
// is tracked by the controller, not the meter.
func (a *Accountant) WakePreview(i int) sim.Time {
	m := &a.nodes[i]
	switch m.state {
	case Sleeping:
		return m.profile.WakeLatency(m.sstate)
	case Off:
		return m.profile.BootDelay()
	}
	return 0
}

// Speed returns node i's current relative execution speed: its
// effective P-state speed (the deeper of governor request and thermal
// floor), or 0 for a node that is not computing.
func (a *Accountant) Speed(i int) float64 {
	m := &a.nodes[i]
	if m.state != Active {
		return 0
	}
	return m.profile.SpeedAt(m.effP())
}

// TotalPowerW returns the instantaneous cluster draw.
func (a *Accountant) TotalPowerW() float64 { return a.totalW }

// SleepingNodes counts nodes currently in a sleep state.
func (a *Accountant) SleepingNodes() int {
	n := 0
	for i := range a.nodes {
		if a.nodes[i].state == Sleeping {
			n++
		}
	}
	return n
}

// Wakes returns the total number of sleep→active transitions.
func (a *Accountant) Wakes() int {
	n := 0
	for i := range a.nodes {
		n += a.nodes[i].wakes
	}
	return n
}

// Flush settles every node's integral up to the kernel's current time.
// Repeated flushes at one instant are free: once every meter is settled
// to now, same-time transitions keep them settled (advance is a no-op
// over a zero interval), so the accounting paths that read per-job
// integrals in a loop pay one O(nodes) sweep, not one per job.
func (a *Accountant) Flush() {
	now := a.k.Now()
	if a.flushedAt == now && a.flushedOnce {
		return
	}
	for i := range a.nodes {
		a.advance(i)
	}
	a.flushedAt, a.flushedOnce = now, true
}

// NodeJoules returns node i's energy integral up to now.
func (a *Accountant) NodeJoules(i int) float64 {
	a.advance(i)
	return a.nodes[i].joules
}

// TotalJoules returns the cluster energy integral up to now.
func (a *Accountant) TotalJoules() float64 {
	a.Flush()
	total := 0.0
	for i := range a.nodes {
		total += a.nodes[i].joules
	}
	return total
}

// JobJoules returns the energy attributed to a job: the integral of the
// draw of every node over the intervals it was charged to that job.
func (a *Accountant) JobJoules(jobID int) float64 {
	a.Flush()
	return a.jobs[jobID]
}

// AttributedJoules returns the energy charged to any job so far.
// Jobs are summed in ID order: float addition is not associative, and
// this total feeds experiment CSVs, so summing in map order would let
// Go's randomized iteration leak into golden artifacts.
func (a *Accountant) AttributedJoules() float64 {
	a.Flush()
	ids := make([]int, 0, len(a.jobs))
	for id := range a.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	total := 0.0
	for _, id := range ids {
		total += a.jobs[id]
	}
	return total
}

// UnattributedJoules is the idle/sleep remainder no job is charged for.
func (a *Accountant) UnattributedJoules() float64 {
	return a.TotalJoules() - a.AttributedJoules()
}

// Thermal DVFS. Every draw transition re-arms at most one pending
// crossing timer per node: the closed-form trajectory under the new
// constant draw either crosses the throttle envelope (heating), crosses
// the restore threshold (cooling with a floor in place), or settles
// between the two — in which case no timer exists at all. A node with no
// thermal envelope never schedules anything, so the feature costs the
// kernel nothing when disabled.

// thermalEps absorbs float error at the crossing instants. Generous on
// purpose — a millionth of a degree is far below any physical meaning,
// and a comparison that disagrees with CrossTime about whether the
// threshold was reached would spin the crossing timer at zero delay.
const thermalEps = 1e-6

// armThermal predicts node i's next envelope crossing under its current
// draw and schedules the corresponding DVFS step. Any previously armed
// timer is invalidated (generation bump).
func (a *Accountant) armThermal(i int) {
	m := &a.nodes[i]
	if !m.thermal {
		return
	}
	m.thermGen++
	th := m.profile.Thermal
	teq := th.EquilibriumC(m.powerW)
	deepest := len(m.profile.PStates) - 1
	var target float64
	var throttle bool
	switch {
	case m.state == Active && m.tstate < deepest && teq > th.ThrottleC+thermalEps:
		if m.tempC >= th.ThrottleC-thermalEps {
			a.thermalThrottle(i)
			return
		}
		target, throttle = th.ThrottleC, true
	case m.tstate > 0 && teq < th.RestoreC-thermalEps:
		if m.tempC <= th.RestoreC+thermalEps {
			a.thermalRestore(i)
			return
		}
		target, throttle = th.RestoreC, false
	default:
		return
	}
	dt, ok := th.CrossTime(m.tempC, m.powerW, target)
	if !ok {
		return
	}
	gen := m.thermGen
	a.k.After(dt, func() {
		if a.nodes[i].thermGen != gen {
			return
		}
		if throttle {
			a.thermalThrottle(i)
		} else {
			a.thermalRestore(i)
		}
	})
}

// thermalThrottle deepens node i's P-state floor until the equilibrium
// of the resulting draw stops exceeding the envelope (or the deepest
// state is reached): a single crossing may take several steps, since a
// shallow step whose equilibrium still sits above ThrottleC would only
// reschedule a zero-delay crossing.
func (a *Accountant) thermalThrottle(i int) {
	a.advance(i)
	m := &a.nodes[i]
	th := m.profile.Thermal
	deepest := len(m.profile.PStates) - 1
	stepped := false
	for m.state == Active && m.tstate < deepest && m.tempC >= th.ThrottleC-thermalEps &&
		th.EquilibriumC(m.profile.ActiveW(m.effP())) > th.ThrottleC+thermalEps {
		m.tstate++
		stepped = true
	}
	if !stepped {
		a.armThermal(i)
		return
	}
	a.setDraw(i, m.profile.ActiveW(m.effP()))
	if a.OnThermal != nil {
		a.OnThermal(i, true, m.tstate)
	}
	a.thermalSample()
	a.armThermal(i)
}

// thermalRestore clears node i's P-state floor once it has cooled to
// the restore threshold. The hysteresis gap guarantees the node must
// re-heat from RestoreC to ThrottleC before throttling again.
func (a *Accountant) thermalRestore(i int) {
	a.advance(i)
	m := &a.nodes[i]
	if m.tstate == 0 {
		a.armThermal(i)
		return
	}
	m.tstate = 0
	if m.state == Active {
		a.setDraw(i, m.profile.ActiveW(m.effP()))
	}
	if a.OnThermal != nil {
		a.OnThermal(i, false, 0)
	}
	a.thermalSample()
	a.armThermal(i)
}

// thermalSample publishes the cluster's thermal snapshot (hottest node,
// count of binding floors) to the metrics hook. Read-only: temperatures
// are projected to now without settling the meters.
func (a *Accountant) thermalSample() {
	if len(a.thermalSubs) == 0 {
		return
	}
	now := a.k.Now()
	maxC, throttled := 0.0, 0
	for i := range a.nodes {
		m := &a.nodes[i]
		if !m.thermal {
			continue
		}
		if c := m.profile.Thermal.TempAfter(m.tempC, m.powerW, now-m.lastT); c > maxC {
			maxC = c
		}
		if m.tstate > 0 {
			throttled++
		}
	}
	for _, fn := range a.thermalSubs {
		fn(now, maxC, throttled)
	}
}

// ThermalEnabled reports whether any metered profile carries a thermal
// envelope.
func (a *Accountant) ThermalEnabled() bool { return a.thermalOn }

// ThermalFloor returns node i's thermal P-state floor (0 when
// unconstrained or no envelope is attached).
func (a *Accountant) ThermalFloor(i int) int { return a.nodes[i].tstate }

// TempC returns node i's temperature projected to now (ambient when no
// envelope is attached).
func (a *Accountant) TempC(i int) float64 {
	m := &a.nodes[i]
	if !m.thermal {
		return m.profile.Thermal.AmbientC
	}
	return m.profile.Thermal.TempAfter(m.tempC, m.powerW, a.k.Now()-m.lastT)
}

// SStateOf returns node i's sleep S-state index (meaningful while the
// node is sleeping; the last occupied rung otherwise).
func (a *Accountant) SStateOf(i int) int { return a.nodes[i].sstate }

// JobThermalSec returns the node-seconds job id's allocation spent under
// a binding thermal floor.
func (a *Accountant) JobThermalSec(id int) float64 {
	a.Flush()
	return a.thermalSec[id]
}
