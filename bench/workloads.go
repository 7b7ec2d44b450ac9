// Package bench is the simulator's end-to-end benchmark: five seeded
// batch workloads that each stress a different layer of the DMR stack,
// a correctness oracle run on every execution, and the per-layer
// ledger (event counts and CPU-profile attribution) that says where the
// host time went. It drives the program only through its public entry
// points: workload.Generate, core.NewSystem/SubmitAll/Run,
// slurm.NewController/Submit/JobComplete, the Subscribe* hooks and
// sim.Kernel.Trace.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Workload is one benchmark input: a seeded job stream replayed as an
// open loop in simulated time on a fixed system. The whole stream is
// generated up front, so there is no host-side load generator whose lag
// could be reported.
type Workload struct {
	Name string
	// Why records what the workload isolates (mirrored in BENCHMARK.json).
	Why string
	// Jobs is the full-size job count; tests divide it.
	Jobs int
	// Params shapes the job stream.
	Params func(jobs int, seed int64) workload.Params
	// Core configures the full stack; nil marks the controller-only
	// workload, whose jobs are bench-owned timer processes.
	Core func() core.Config
	// Telemetry attaches the telemetry sink and exports it after the run.
	Telemetry bool
	// Twin names the workload that runs the same system with telemetry
	// off; traced runs measure the telemetry overhead against it.
	Twin string
}

// Workloads lists the benchmark's workloads in report order.
var Workloads = []Workload{
	{
		Name: "fs_sparse",
		Why:  "sparse FS stream on 512 nodes, empty queue: process switching and step loops, no scheduler work",
		Jobs: 4000,
		Params: func(jobs int, seed int64) workload.Params {
			return workload.Preliminary(jobs, 1, seed)
		},
		Core: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Nodes = 512
			cfg.SleepLadder = []slurm.SleepRung{{AfterIdle: 120 * sim.Second}}
			return cfg
		},
	},
	{
		Name: "ctl_deep",
		Why:  "deep class-demanding queue on 2048 mixed nodes with timer jobs: the controller alone",
		Jobs: 20000,
		Params: func(jobs int, seed int64) workload.Params {
			p := classStream(jobs, seed, 256)
			p.Iterations = 10
			p.RepeatProb = 0
			return p
		},
	},
	{
		Name:   "mall_deep",
		Why:    "deep malleable FS queue on 512 mixed nodes: DMR RPCs, expand/shrink dances, spawn and offload",
		Jobs:   3000,
		Params: mallParams,
		Core:   mallDeep,
	},
	{
		Name:      "mall_deep_tel",
		Why:       "mall_deep with telemetry on and exported: prices the observers against their bypass twin",
		Jobs:      3000,
		Params:    mallParams,
		Core:      mallDeep,
		Telemetry: true,
		Twin:      "mall_deep",
	},
	{
		Name: "power_dyn",
		Why:  "realistic malleable jobs under thermal DVFS, sleep ladder, 40 kW cap and migration: energy-layer writes",
		Jobs: 1000,
		Params: func(jobs int, seed int64) workload.Params {
			p := workload.Realistic(jobs, seed)
			p.MeanArrival = 20 * sim.Second
			p.ClassMix = workload.DefaultClassMix()
			return p
		},
		Core: func() core.Config {
			pc := mixedFleet(256)
			cfg := core.DefaultConfig()
			cfg.Platform = &pc
			cfg.ClassAware = true
			cfg.Thermal = true
			cfg.SleepLadder = slurm.DefaultSleepLadder()
			cfg.PowerCapW = 40000
			cfg.Migration = &slurm.MigrationConfig{}
			return cfg
		},
	},
}

// Streams is how many independent job streams one benchmark seed
// stands for. Executions cycle through them, so a run's medians average
// over several inputs rather than one stream's quirks: how deep a
// near-saturated queue happens to get, or where the garbage collector's
// cycle falls when the heap peaks.
const Streams = 4

// StreamSeed is the input seed of stream i of a benchmark seed. The
// streams of different benchmark seeds never overlap.
func StreamSeed(seed int64, i int) int64 { return seed*Streams + int64(i%Streams) }

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// classStream is a malleable FS stream with mixed-fleet class demands
// arriving every 2 s on average: dense enough that the queue stays deep.
func classStream(jobs int, seed int64, maxNodes int) workload.Params {
	p := workload.Preliminary(jobs, 1, seed)
	p.MaxNodes = maxNodes
	p.MeanArrival = 2 * sim.Second
	p.ClassMix = workload.DefaultClassMix()
	return p
}

// mixedFleet is a half reference-class, half efficiency-class fleet.
func mixedFleet(nodes int) platform.Config {
	pc := platform.Marenostrum3()
	pc.Nodes = nodes
	pc.Classes = []platform.MachineClass{
		{Count: nodes / 2, Power: energy.DefaultProfile()},
		{Count: nodes - nodes/2, Power: energy.EfficiencyProfile()},
	}
	return pc
}

// mallParams and mallDeep are the stream and system of the malleable
// deep-queue workloads.
func mallParams(jobs int, seed int64) workload.Params { return classStream(jobs, seed, 64) }

func mallDeep() core.Config {
	pc := mixedFleet(512)
	cfg := core.DefaultConfig()
	cfg.Platform = &pc
	cfg.Energy = true
	cfg.ClassAware = true
	return cfg
}

// rig is one constructed system with its jobs submitted.
type rig struct {
	k    *sim.Kernel
	ctl  *slurm.Controller
	acct *energy.Accountant
	sys  *core.System // nil for the controller-only workload
	tel  *telemetry.Sink
	jobs []*slurm.Job
	// submitNs and completeNs collect host timings of the bench's own
	// Submit/JobComplete calls (controller-only workload, traced runs).
	submitNs, completeNs []int64
}

// build constructs the system a workload runs on.
func (w Workload) build() *rig {
	if w.Core == nil {
		cl := platform.New(mixedFleet(2048))
		scfg := slurm.DefaultConfig()
		scfg.ClassAware = true
		scfg.Energy = energy.New(cl.K, cl.PowerProfiles())
		scfg.SleepLadder = []slurm.SleepRung{{AfterIdle: 120 * sim.Second}}
		return &rig{k: cl.K, ctl: slurm.NewController(cl, scfg), acct: scfg.Energy}
	}
	cfg := w.Core()
	if w.Telemetry {
		cfg.Telemetry = telemetry.New()
	}
	sys := core.NewSystem(cfg)
	return &rig{k: sys.Cluster.K, ctl: sys.Ctl, acct: sys.Energy, sys: sys, tel: cfg.Telemetry}
}

// submit schedules every spec for submission at its arrival time. With
// timed set, the controller-only workload records the host time of each
// Submit and JobComplete call it makes.
func (r *rig) submit(specs []workload.Spec, timed bool) {
	if r.sys != nil {
		r.sys.SubmitAll(specs)
		r.jobs = r.sys.Jobs()
		return
	}
	cl := r.ctl.Cluster()
	r.jobs = make([]*slurm.Job, 0, len(specs))
	for _, sp := range specs {
		j := &slurm.Job{
			Name:      fmt.Sprintf("FS-%05d", sp.Index),
			ReqNodes:  sp.Nodes,
			TimeLimit: sim.Time(float64(sp.Runtime) * 4),
			ReqClass:  sp.ReqClass,
			PrefClass: sp.PrefClass,
		}
		// A class-pinned job can never outgrow its class.
		if j.ReqClass != "" {
			if cc := cl.ClassCount(j.ReqClass); cc > 0 && j.ReqNodes > cc {
				j.ReqNodes = cc
			}
		}
		d := sp.Runtime
		j.Launch = func(j *slurm.Job, _ []*platform.Node) {
			r.k.Spawn(j.Name, func(p *sim.Proc) {
				p.Sleep(d)
				if timed {
					r.completeNs = append(r.completeNs, hostNs(func() { r.ctl.JobComplete(j) }))
				} else {
					r.ctl.JobComplete(j)
				}
			})
		}
		r.jobs = append(r.jobs, j)
		r.k.At(sp.Arrival, func() {
			if timed {
				r.submitNs = append(r.submitNs, hostNs(func() { r.ctl.Submit(j) }))
			} else {
				r.ctl.Submit(j)
			}
		})
	}
}
