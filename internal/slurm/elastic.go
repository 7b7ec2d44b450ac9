package slurm

import (
	"math/bits"
	"sort"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Elastic capacity control. The paper's thesis is that adaptive
// workloads let the system track demand; a fixed fleet only lets the
// *jobs* adapt. The controller below closes the loop on the machine
// side, following the adapt(minimum, maximum) shape of Dask's adaptive
// deployments: a periodic adapt tick measures queue pressure and
// provisions or decommissions nodes against a Min/Max envelope.
// Decommissioned nodes are powered off outright (the S5 rung below the
// sleep ladder: near-zero draw, a full reboot on provision), so unlike
// the nap ladder the savings scale all the way to zero draw above Min.
//
// Everything here is gated on Config.Elastic: with it nil no adapt
// timer is ever armed, no node leaves the fleet, and the free pool's
// booting bitmaps stay empty, keeping the fixed-fleet event stream
// byte-identical.

// ElasticConfig tunes the elastic capacity controller.
type ElasticConfig struct {
	// Min and Max bound the online fleet (nodes not powered off).
	// Min may be 0: an idle cluster scales to zero draw and reboots on
	// the first arrival. Max 0 means the whole cluster.
	Min, Max int
	// Interval is the adapt-loop period (default 30s). The loop only
	// runs while it has work — pending demand to provision for, or
	// surplus above Min to retire — so an idle simulation still drains.
	Interval sim.Time
	// TargetWait is the queue-wait the controller tolerates before
	// counting a pending job as demand: scale-up triggers once a job has
	// waited this long (0: immediately). Scale-down always respects the
	// whole eligible queue, whatever its age.
	TargetWait sim.Time
	// BootBurst caps how many provisions one adapt tick may initiate
	// (the boot-storm limiter: a rack of machines booting at once draws
	// full active power while doing no work). Default 8.
	BootBurst int
	// HoldDown is the scale-down damping window: a tick only retires
	// capacity the demand high-water mark has not touched for this long
	// (default 15 min). Scale-up stays immediate — the asymmetry is the
	// point: adding a node costs one boot, while retiring one the next
	// arrival wants costs a boot premium on top of the wait it inflicts.
	HoldDown sim.Time
}

// elasticState is the controller-side state of the adapt loop.
type elasticState struct {
	cfg      ElasticConfig
	offline  []bool // powered off by decommission, by node index
	offlineN int
	armed    bool // an adapt tick is scheduled

	// recent is a ring of the demand figure from the last
	// HoldDown/Interval adapt ticks; its max is the scale-down floor.
	recent    []int
	recentIdx int

	// preBootGen/preBootT track armed wake-ahead timers: node i has one
	// pending iff preBootGen[i] == sleepGen[i], firing at preBootT[i].
	// Arming bumps sleepGen (freezing the node's ladder descent), so any
	// later allocation, release or decommission invalidates the timer.
	preBootGen []int
	preBootT   []sim.Time
}

// initElastic validates and attaches the elastic configuration. Called
// from NewController before the initial sleep timers are armed: nodes
// above Min start powered off, not napping.
func (c *Controller) initElastic(cfg ElasticConfig) {
	n := len(c.cluster.Nodes)
	if cfg.Min > n {
		cfg.Min = n
	}
	if cfg.Max <= 0 || cfg.Max > n {
		cfg.Max = n
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * sim.Second
	}
	if cfg.BootBurst <= 0 {
		cfg.BootBurst = 8
	}
	if cfg.HoldDown <= 0 {
		cfg.HoldDown = 15 * sim.Minute
	}
	window := int(cfg.HoldDown / cfg.Interval)
	if window < 1 {
		window = 1
	}
	c.elastic = &elasticState{
		cfg:        cfg,
		offline:    make([]bool, n),
		recent:     make([]int, window),
		preBootGen: make([]int, n),
		preBootT:   make([]sim.Time, n),
	}
	// Start lean: the fleet opens at Min and grows on demand. Highest
	// indices power off first, mirroring the allocator's low-index
	// preference, so the hot end of the cluster stays hot.
	for i := n - 1; i >= 0 && n-c.elastic.offlineN > cfg.Min; i-- {
		c.decommissionNode(c.cluster.Nodes[i])
	}
}

// isOffline reports whether node i is powered off by decommission.
func (c *Controller) isOffline(i int) bool {
	return c.elastic != nil && c.elastic.offline[i]
}

// FleetNodes returns how many nodes are online (not decommissioned) —
// the whole cluster on a fixed fleet.
func (c *Controller) FleetNodes() int {
	if c.elastic == nil {
		return len(c.cluster.Nodes)
	}
	return len(c.cluster.Nodes) - c.elastic.offlineN
}

// armAdapt schedules the next adapt tick unless one is already pending
// (the kick-style coalescing that lets the kernel drain: the loop is
// armed by state changes and by its own ticks while work remains, never
// unconditionally).
func (c *Controller) armAdapt() {
	e := c.elastic
	if e == nil || e.armed {
		return
	}
	e.armed = true
	c.k.After(e.cfg.Interval, func() {
		e.armed = false
		c.adaptTick()
	})
}

// adaptTick measures demand against the online fleet and provisions or
// decommissions toward the envelope-clamped target.
func (c *Controller) adaptTick() {
	e := c.elastic
	now := c.k.Now()
	fleet := c.FleetNodes()
	// Demand: nodes allocated or held, plus what the eligible pending
	// queue needs. The urgent figure — jobs whose measured wait reached
	// TargetWait — drives scale-up; the full figure floors scale-down,
	// so capacity the queue is about to absorb is never retired.
	busy := c.AllocatedNodes()
	demandAll, demandUrgent := busy, busy
	for _, j := range c.pending {
		if !c.eligible(j) {
			continue
		}
		need := c.needNodes(j)
		demandAll += need
		if now-j.SubmitTime >= e.cfg.TargetWait {
			demandUrgent += need
		}
	}
	// The scale-down floor is the demand high-water mark over the
	// HoldDown window, not the instant figure: a between-arrivals dip at
	// peak load must not power off nodes the next submission reboots.
	e.recent[e.recentIdx] = demandAll
	e.recentIdx = (e.recentIdx + 1) % len(e.recent)
	hwm := demandAll
	for _, d := range e.recent {
		if d > hwm {
			hwm = d
		}
	}
	up := clampInt(demandUrgent, e.cfg.Min, e.cfg.Max)
	down := clampInt(hwm, e.cfg.Min, e.cfg.Max)
	switch {
	case fleet < up:
		c.elasticScaleUp(up - fleet)
	case fleet > down:
		c.elasticScaleDown(fleet - down)
	}
	// Re-arm while another tick could still act: surplus above Min to
	// retire (nodes become eligible as their ladders descend), or
	// pending demand that future ticks may age past TargetWait or
	// provision past the boot-storm limiter. Everything else re-arms
	// through Submit/JobComplete, so stopping here lets the kernel
	// drain.
	if c.FleetNodes() > e.cfg.Min || (len(c.pending) > 0 && c.FleetNodes() < e.cfg.Max) {
		c.armAdapt()
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// elasticScaleUp provisions up to deficit powered-off nodes, lowest
// index first, bounded by the boot-storm limiter. A provisioned node
// joins the free pool immediately — as booting — so the scheduler can
// already promise it to a job that will tolerate the remaining boot.
func (c *Controller) elasticScaleUp(deficit int) {
	e := c.elastic
	if deficit > e.cfg.BootBurst {
		deficit = e.cfg.BootBurst
	}
	booted := 0
	for i := 0; i < len(c.cluster.Nodes) && booted < deficit; i++ {
		if !e.offline[i] || !c.provisionable(i) {
			continue
		}
		c.provisionNode(c.cluster.Nodes[i])
		booted++
	}
	if booted > 0 {
		c.kick()
	}
}

// provisionNode powers one node back on: a full boot at active draw,
// after which it lands powered-on idle (or launches the job that claimed
// it mid-boot).
func (c *Controller) provisionNode(n *platform.Node) {
	e := c.elastic
	i := n.Index
	e.offline[i] = false
	e.offlineN--
	c.sleepGen[i]++ // satellite of decommission: no stale timer may act on the fresh incarnation
	w := c.cfg.Energy.StartBoot(i)
	c.bootUntil[i] = c.k.Now() + w
	if c.faults != nil {
		// Mark the landing for the boot-failure consult: only this
		// provision transition, completing at exactly this deadline on a
		// still-free node, may fail.
		c.faults.provBootUntil[i] = c.bootUntil[i]
	}
	c.pool.addBooting(i)
	c.scheduleBootDone(n)
	c.stats.Boots++
	c.logNode(EvBoot, n, 0)
}

// elasticScaleDown powers off up to surplus free nodes. While an idle
// ladder is configured, only nodes that have descended to its deepest
// rung are eligible: the full ladder is the hysteresis. A node idle for
// one short lull sits in a shallow rung and survives the tick — powering
// off costs a full reboot (boot premium ≫ rung wake), so retiring on the
// first quiet minute thrashes boot cycles through every valley of a
// diurnal load. Without a ladder any free node qualifies. Deepest
// sleepers go first, highest index first within a rung.
func (c *Controller) elasticScaleDown(surplus int) {
	a := c.cfg.Energy
	minDepth := 0
	if len(c.cfg.SleepLadder) > 0 {
		minDepth = c.cfg.SleepLadder[len(c.cfg.SleepLadder)-1].State
	}
	type cand struct{ idx, depth int }
	cands := make([]cand, 0, surplus)
	for i := len(c.cluster.Nodes) - 1; i >= 0; i-- {
		cp := c.pool.byNode[i]
		switch {
		case cp.asleep.has(i) && a.SStateOf(i) >= minDepth:
			cands = append(cands, cand{i, a.SStateOf(i)})
		case cp.awake.has(i) && len(c.cfg.SleepLadder) == 0:
			cands = append(cands, cand{i, -1})
		}
	}
	sort.SliceStable(cands, func(x, y int) bool { return cands[x].depth > cands[y].depth })
	killed := 0
	for _, cd := range cands {
		if killed >= surplus {
			break
		}
		c.decommissionNode(c.cluster.Nodes[cd.idx])
		killed++
	}
	if killed > 0 && c.capped() {
		c.capRestore()
	}
}

// decommissionNode takes one free node out of the fleet and powers it
// off. The generation bump is load-bearing: a rung-deepening timer (or
// wake-ahead pre-boot) armed against the node's previous life must be a
// no-op, not a deepen on a reused index.
func (c *Controller) decommissionNode(n *platform.Node) {
	e := c.elastic
	i := n.Index
	c.pool.remove(i)
	c.sleepGen[i]++
	e.offline[i] = true
	e.offlineN++
	c.cfg.Energy.NodeOff(i)
	c.stats.Decommissions++
	c.logNode(EvOffline, n, 0)
}

// elasticBootLanded runs when a provisioned or pre-booted node finishes
// its transition while still free: give the adapt loop a chance to see
// the new capacity (it may still be below target under the boot-storm
// limiter).
func (c *Controller) elasticBootLanded(*platform.Node) {
	c.armAdapt()
}

// wakeAhead pre-boots the sleeping nodes an EASY reservation holder
// will receive, timed so each finishes exactly at the shadow time:
// start at reservation_start − wake_latency. Only meaningful when the
// holder is blocked on nodes — every free eligible node is then part of
// its future allocation (avail < need). The pre-boot freezes the node's
// ladder (no deepening under a committed wake) and survives until any
// allocation, release, crash or decommission bumps the generation.
func (c *Controller) wakeAhead(blocked *Job, shadow sim.Time) {
	const farFuture = sim.Time(1<<62 - 1)
	if shadow >= farFuture || c.freeFor(blocked) >= c.needNodes(blocked) {
		return
	}
	e := c.elastic
	now := c.k.Now()
	for _, cp := range c.pool.eligibleClasses(blocked) {
		if cp.nAsleep == 0 {
			continue
		}
		for w := range cp.asleep {
			word := cp.asleep[w]
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				wake := c.cfg.Energy.WakePreview(i)
				t0 := shadow - wake
				if t0 < now {
					t0 = now
				}
				if e.preBootGen[i] == c.sleepGen[i] && e.preBootT[i] <= t0 {
					continue // already armed at least as early
				}
				c.sleepGen[i]++
				gen := c.sleepGen[i]
				e.preBootGen[i], e.preBootT[i] = gen, t0
				nd := c.cluster.Nodes[i]
				c.k.At(t0, func() { c.preBoot(nd, gen) })
			}
		}
	}
}

// preBoot fires a wake-ahead timer: if the node is still the free
// sleeping node the reservation saw, start its wake now so it comes up
// at the shadow time.
func (c *Controller) preBoot(n *platform.Node, gen int) {
	i := n.Index
	if c.sleepGen[i] != gen || !c.pool.byNode[i].asleep.has(i) {
		return
	}
	if c.cfg.Energy.State(i) != energy.Sleeping {
		return
	}
	w := c.cfg.Energy.StartBoot(i)
	c.bootUntil[i] = c.k.Now() + w
	c.pool.markBooting(i)
	c.scheduleBootDone(n)
	c.stats.Boots++
	c.logNode(EvBoot, n, 0)
}
