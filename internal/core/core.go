// Package core assembles the full DMR framework — simulated cluster,
// Slurm-like controller with the Algorithm 1 selection policy, the
// Nanos++-like runtime, and the paper's applications — into one facade
// for running workloads. This is the library entry point the examples,
// benchmarks and command-line tools build on.
package core

import (
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nanos"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/slurm/selectdmr"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config shapes a System.
type Config struct {
	// Nodes overrides the cluster size (0 keeps the platform default of
	// 65, the paper's testbed).
	Nodes int
	// Platform overrides the full hardware description when non-nil.
	Platform *platform.Config
	// Policy selects the DMR reconfiguration plug-in. Under NoPolicy
	// even flexible jobs run rigid.
	Policy Policy
	// Async runs flexible jobs with dmr_icheck_status semantics (§VIII-C).
	Async bool
	// SchedPeriod, when >= 0, overrides every application's checking
	// inhibitor period; SchedPeriodDefault (-1) keeps each class's
	// Table I default.
	SchedPeriod sim.Time
	// MoldableSubmissions enables the paper's future-work extension
	// (§X): jobs are submitted with a node range [min, requested] and
	// the scheduler picks the start size.
	MoldableSubmissions bool
	// FactorOverride, when > 0, replaces every application's resizing
	// factor (the paper fixes 2; the ablation sweeps it).
	FactorOverride int
	// CRTransfer moves reconfiguration data through the parallel
	// filesystem (checkpoint/restart style) instead of the in-memory
	// offload path — the workload-scale version of Figure 1's baseline.
	CRTransfer bool
	// Energy is ignored: every system meters its nodes with a power
	// accountant (System.Energy).
	//
	// Deprecated: leave it unset; it is removed once no caller sets it.
	Energy bool
	// SleepLadder steps idle nodes through progressively deeper S-states
	// the longer they stay idle (empty keeps idle nodes powered on, one
	// rung is a single idle-timeout drop). Allocating a laddered node
	// pays the wake latency of the rung it occupies.
	SleepLadder []slurm.SleepRung
	// Thermal attaches the default per-class thermal envelope to every
	// node profile that does not already carry one: sustained load heats
	// nodes past the envelope and forces DVFS throttling independent of
	// any power cap, and cooling below the restore threshold clears it.
	// Platforms supplying their own Profile.Thermal envelopes are
	// honored without this switch.
	Thermal bool
	// PowerCapW bounds the instantaneous cluster draw: job starts are
	// admission-controlled and running jobs are DVFS-throttled to stay
	// under the cap (0 disables capping).
	PowerCapW float64
	// ClassAware turns on machine-class-aware placement for
	// heterogeneous fleets: the scheduler prefers faster classes, prices
	// moldable and backfill candidates by the slowest class they would
	// receive, and the DMR policy declines expansions whose added nodes
	// would drag the coupled step loop below its current throughput.
	// Per-job hard/soft class demands (workload ClassMix) are honored
	// even without this switch.
	ClassAware bool
	// Elastic attaches the elastic capacity controller: a periodic adapt
	// loop sizes the powered fleet between Min and Max against queue
	// pressure and measured wait, decommissioned nodes power off to S5
	// (zero draw, full boot on provision), and EASY reservations
	// pre-boot the blocked job's nodes ahead of the reservation start.
	Elastic *slurm.ElasticConfig
	// Faults attaches the deterministic fault injector: seeded node
	// crashes from an MTBF/Weibull model with repair delays, and boot
	// failures for elastic provisioning (BootFailP requires Elastic). A
	// crashed node's rigid job is requeued (restarting from scratch, or
	// from its last periodic checkpoint when CkptEvery is set); a
	// malleable job shrinks to its survivors and continues. Nil — or a
	// config with the model disabled — leaves every RNG stream and
	// golden byte-identical.
	Faults *faults.Config
	// CkptEvery writes periodic application checkpoints through the PFS
	// every this many iterations (0 disables), bounding the work a
	// crash-requeued rigid job loses.
	CkptEvery int
	// Migration attaches the live-migration decision pass (the picker
	// prices moves in watts): the scheduler may order a running job onto
	// another machine class through a modeled checkpoint/restart cycle,
	// to evacuate throttled nodes, clean up class-straddling placements,
	// or consolidate sparse load so vacated racks power down. Requires a
	// Policy (the selectdmr plug-ins implement the picker half) and a
	// fleet of at least two machine classes. Nil leaves every golden
	// byte-identical.
	Migration *slurm.MigrationConfig
	// Telemetry, when non-nil, attaches the deterministic telemetry sink
	// to the controller's event and sample streams and the accountant's
	// power samples: sim-time trace spans and the metrics registry. Nil
	// (the default) leaves the streams without that subscriber.
	Telemetry *telemetry.Sink
}

// Policy names the selection plug-in that decides reconfigurations.
type Policy int

const (
	NoPolicy   Policy = iota // every check answers "no action"
	Algorithm1               // the paper's policy
	// PreferredOnly ablates Algorithm 1 to its preferred-size branch,
	// disabling wide optimization.
	PreferredOnly
	// EnergyAware is Algorithm 1's energy-biased variant: shrink when
	// the queue is empty so freed nodes sleep, expand only under dense
	// arrivals.
	EnergyAware
)

// SchedPeriodDefault is the SchedPeriod sentinel that keeps each
// application class's Table I checking-inhibitor period. It is not a
// duration, which is why it has a name instead of a raw -1.
const SchedPeriodDefault sim.Time = -1

// timeLimitFactor scales job runtime estimates into the time limits
// backfill reservations are priced by.
const timeLimitFactor = 4

// DefaultConfig returns the standard experiment setup.
func DefaultConfig() Config {
	return Config{Policy: Algorithm1, SchedPeriod: SchedPeriodDefault}
}

// System is a wired cluster ready to accept workloads.
type System struct {
	Cfg      Config
	Cluster  *platform.Cluster
	Ctl      *slurm.Controller
	Recorder *metrics.Recorder
	// Energy is the power accountant every system meters with.
	Energy *energy.Accountant

	jobs []*slurm.Job
}

// platformConfig resolves the hardware description cfg builds.
func (cfg Config) platformConfig() platform.Config {
	pc := platform.Marenostrum3()
	if cfg.Platform != nil {
		pc = *cfg.Platform
	}
	if cfg.Nodes > 0 {
		pc.Nodes = cfg.Nodes
	}
	return pc
}

// plugin builds the selection plug-in for cfg's policy. Every plug-in
// prices expansions class-aware exactly when ClassAware is set.
func (cfg Config) plugin() slurm.SelectPlugin {
	base := selectdmr.Policy{ClassAware: cfg.ClassAware}
	switch cfg.Policy {
	case NoPolicy:
		return nil
	case PreferredOnly:
		base.DisableWide = true
	case EnergyAware:
		return selectdmr.NewEnergyAware(base)
	}
	return &base
}

// slurmConfig derives the controller config, short of the accountant
// and fault injector NewSystem attaches.
func (cfg Config) slurmConfig() slurm.Config {
	scfg := slurm.DefaultConfig()
	scfg.Policy = cfg.plugin()
	scfg.ClassAware = cfg.ClassAware
	scfg.SleepLadder = cfg.SleepLadder
	scfg.PowerCapW = cfg.PowerCapW
	scfg.Elastic = cfg.Elastic
	scfg.Migration = cfg.Migration
	return scfg
}

// Validate reports the first rule cfg breaks. It builds no cluster, so
// the command-line tools call it on user input; NewSystem panics with
// the same error.
func (cfg Config) Validate() error {
	pc := cfg.platformConfig()
	if err := pc.Validate(); err != nil {
		return err
	}
	if cfg.CkptEvery < 0 {
		return fmt.Errorf("core: CkptEvery %d is negative (0 disables checkpoints)", cfg.CkptEvery)
	}
	if f := cfg.Faults; f != nil {
		if err := f.Validate(); err != nil {
			return err
		}
		if f.BootFailP > 0 && cfg.Elastic == nil {
			return errors.New("core: Faults.BootFailP requires Elastic (only elastic provisioning boots nodes)")
		}
	}
	if cfg.Migration != nil {
		mixed := false // some node falls outside the first populated class
		for _, mc := range pc.Classes {
			if mc.Count > 0 {
				mixed = mc.Count < pc.Nodes
				break
			}
		}
		if !mixed {
			return errors.New("core: Migration needs a fleet of at least two machine classes")
		}
	}
	return cfg.slurmConfig().Validate(pc.Nodes)
}

// NewSystem builds a fresh simulated system. It panics if cfg does not
// validate.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	pc := cfg.platformConfig()
	if cfg.Thermal {
		// Stamp the default envelope onto every class that lacks one,
		// scaled to its P0 draw (platform-supplied envelopes win). The
		// Classes slice shares its backing array with the caller's
		// config: stamp a copy, or a thermal run would pollute every
		// later system built from the same platform.
		if len(pc.Power.PStates) == 0 {
			pc.Power = energy.DefaultProfile()
		}
		if !pc.Power.Thermal.Enabled() {
			pc.Power.Thermal = energy.DefaultThermalFor(pc.Power)
		}
		if len(pc.Classes) > 0 {
			classes := make([]platform.MachineClass, len(pc.Classes))
			copy(classes, pc.Classes)
			pc.Classes = classes
		}
		for i := range pc.Classes {
			if !pc.Classes[i].Power.Thermal.Enabled() {
				pc.Classes[i].Power.Thermal = energy.DefaultThermalFor(pc.Classes[i].Power)
			}
		}
	}
	cl := platform.New(pc)
	scfg := cfg.slurmConfig()
	acct := energy.New(cl.K, cl.PowerProfiles())
	// Subscribe the traces before NewController: an elastic fleet powers
	// nodes off inside it, and the accountant samples only for
	// subscribers.
	rec := &metrics.Recorder{}
	rec.AttachPower(acct)
	if acct.ThermalEnabled() {
		rec.AttachThermal(acct)
	}
	scfg.Energy = acct
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		scfg.Faults = faults.New(*cfg.Faults)
	}
	ctl := slurm.NewController(cl, scfg)
	rec.Attach(ctl)
	if cfg.Telemetry != nil {
		cfg.Telemetry.Attach(ctl)
	}
	return &System{Cfg: cfg, Cluster: cl, Ctl: ctl, Recorder: rec, Energy: acct}
}

// AppConfig maps a workload spec to its application configuration,
// applying Table I parameters and the system-wide overrides.
func (s *System) AppConfig(spec workload.Spec) apps.Config {
	var cfg apps.Config
	if spec.Class == apps.ClassFS {
		// FS scales linearly: the sequential step time is the submitted
		// size times the per-step runtime at that size.
		iters := apps.FSConfig(0).Iterations
		seqStep := sim.Time(int64(spec.Runtime) / int64(iters) * int64(spec.Nodes))
		cfg = apps.FSConfig(seqStep)
		if cfg.MaxProcs < spec.Nodes {
			// Table I sizes FS for the paper's 20-node testbed; a wider
			// submission (the cluster-scale workloads) may keep what it
			// asked for rather than being resized down to the table cap.
			cfg.MaxProcs = spec.Nodes
		}
	} else {
		cfg = apps.ForClass(spec.Class)
	}
	if s.Cfg.SchedPeriod >= 0 {
		cfg.SchedPeriod = s.Cfg.SchedPeriod
	}
	if cfg.MaxProcs > s.Ctl.TotalNodes() {
		cfg.MaxProcs = s.Ctl.TotalNodes()
	}
	if s.Cfg.FactorOverride > 0 {
		cfg.Factor = s.Cfg.FactorOverride
	}
	cfg.UseAsync = s.Cfg.Async
	cfg.Malleable = spec.Flexible && s.Cfg.Policy != NoPolicy
	cfg.CRTransfer = s.Cfg.CRTransfer
	cfg.CkptEvery = s.Cfg.CkptEvery
	cfg.MigrationAware = s.Cfg.Migration != nil
	return cfg
}

// Submit schedules one workload spec for submission at its arrival time.
// The returned job handle is also tracked for result collection.
func (s *System) Submit(spec workload.Spec) *slurm.Job {
	cfg := s.AppConfig(spec)
	app := apps.New(spec.Class)
	j := &slurm.Job{
		Name:      fmt.Sprintf("%s-%03d", spec.Class, spec.Index),
		ReqNodes:  spec.Nodes,
		TimeLimit: spec.Runtime * timeLimitFactor,
		Flexible:  spec.Flexible,
		ReqClass:  spec.ReqClass,
		PrefClass: spec.PrefClass,
	}
	if j.ReqClass != "" {
		// A class-pinned job can never outgrow its class: clamp the
		// submission (and the app's resize ceiling) to the class size so
		// it does not pend forever on a fleet where the class is small.
		if cc := s.Cluster.ClassCount(j.ReqClass); cc > 0 {
			if j.ReqNodes > cc {
				j.ReqNodes = cc
			}
			if cfg.MinProcs > cc {
				cfg.MinProcs = cc
			}
			if cfg.MaxProcs > cc {
				cfg.MaxProcs = cc
			}
			if cfg.Preferred > cc {
				cfg.Preferred = cc
			}
		}
	}
	if s.Cfg.MoldableSubmissions && spec.Flexible {
		j.MinNodes = cfg.MinProcs
		j.MaxNodes = spec.Nodes
	}
	if s.Cfg.ClassAware && j.ReqClass != "" && spec.Flexible && s.Cfg.Policy != NoPolicy {
		// A class-pinned submission at full size would wait until most
		// of its class is simultaneously free — on a small class that
		// serializes the whole partition. Under class-aware scheduling a
		// flexible pinned job is molded within its class instead: start
		// with what the class can give now and let the DMR policy grow
		// it as the class frees up. The floor is the app's preferred
		// size (not its bare minimum) so the job does not crawl up the
		// whole factor chain in expand dances.
		j.MinNodes = cfg.MinProcs
		if cfg.Preferred > j.MinNodes && cfg.Preferred <= j.ReqNodes {
			j.MinNodes = cfg.Preferred
		}
		j.MaxNodes = j.ReqNodes
		// The scheduler additionally refuses to mold the start below the
		// app's preferred size. FS-style apps declare no Table I
		// preference, which used to collapse the floor to MinProcs=1 — a
		// wide pinned job molded onto a 1-node sliver never regrows under
		// a deep queue (Algorithm 1 needs free nodes the queue never
		// leaves). They scale linearly, so their submitted width is the
		// preferred size.
		j.PrefNodes = cfg.Preferred
		if j.PrefNodes == 0 {
			j.PrefNodes = j.ReqNodes
		}
	}
	rcfg := nanos.Config{
		SchedPeriod:   cfg.SchedPeriod,
		Async:         s.Cfg.Async,
		ExpandTimeout: 10 * sim.Second,
		FaultAware:    cfg.Malleable,
	}
	// One RecoveryState per job, captured by the Launch closure: it
	// outlives crash requeues, so a restarted incarnation resumes from
	// the last periodic checkpoint the previous one completed.
	cfg.Recovery = &apps.RecoveryState{}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		nanos.Launch(s.Ctl, j, rcfg, func(w *nanos.Worker) {
			apps.Run(w, cfg, app)
		})
	}
	s.jobs = append(s.jobs, j)
	if spec.Arrival <= s.Cluster.K.Now() {
		s.Ctl.Submit(j)
	} else {
		s.Cluster.K.At(spec.Arrival, func() { s.Ctl.Submit(j) })
	}
	return j
}

// SubmitAll schedules a whole workload.
func (s *System) SubmitAll(specs []workload.Spec) {
	for _, sp := range specs {
		s.Submit(sp)
	}
}

// Run drives the simulation to completion and aggregates results.
func (s *System) Run() *metrics.WorkloadResult {
	s.Cluster.K.Run()
	if live := s.Cluster.K.LiveProcs(); len(live) != 0 {
		panic(fmt.Sprintf("core: deadlocked processes after drain: %v", live))
	}
	// Settle the last coalesced power sample: the power trace and the
	// telemetry gauge both end on it.
	s.Energy.FlushSamples()
	if s.Cfg.Telemetry != nil {
		s.Cfg.Telemetry.Flush() // close every open trace span at the drained clock
	}
	res := metrics.Collect(s.jobs, &s.Recorder.Trace)
	// Energy is measured over [0, makespan] so fixed and flexible runs of
	// different lengths compare their own workload windows; trailing
	// sleep timers past the last job end are excluded.
	res.Power = s.Recorder.PowerTrace
	res.EnergyJ = res.Power.EnergyJoules(res.Makespan)
	res.AvgPowerW = res.Power.AvgPowerW(res.Makespan)
	res.Temp = s.Recorder.TempTrace
	return res
}

// Jobs returns the tracked jobs in submission order.
func (s *System) Jobs() []*slurm.Job { return s.jobs }

// RunWorkload is the one-call form: build a system, submit specs, run.
func RunWorkload(cfg Config, specs []workload.Spec) *metrics.WorkloadResult {
	s := NewSystem(cfg)
	s.SubmitAll(specs)
	return s.Run()
}
