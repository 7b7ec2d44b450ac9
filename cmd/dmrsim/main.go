// Command dmrsim runs a single workload through the DMR framework and
// reports the paper's measures, optionally with evolution charts.
//
// Usage:
//
//	dmrsim [-jobs N] [-nodes N] [-realistic] [-arrival shape] [-fixed] [-async] [-moldable]
//	       [-period s] [-seed N] [-trace] [-events]
//	       [-sleep s] [-energypolicy] [-powercap W]
//	       [-fastnodes N] [-classaware] [-thermal] [-ladder]
//	       [-elastic min:max] [-mtbf s] [-mttr s] [-bootfail p] [-ckpt N] [-migrate]
//	       [-tracefile f.json] [-metricsfile f.prom] [-pprof f] [-rtrace f]
//
// Observability: -tracefile writes a Chrome trace-event JSON of the run
// (job lifecycle, node occupancy and power states, scheduler passes and
// DMR decisions on the simulated clock — load it in Perfetto or
// chrome://tracing); -metricsfile snapshots the telemetry registry in
// Prometheus text format (or CSV when the path ends in .csv). Both are
// deterministic: same flags and seed, same bytes. -pprof and -rtrace
// capture host-side CPU profile / runtime trace of the simulator itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fatal prints an error and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmrsim:", err)
	os.Exit(1)
}

// parseElastic parses the -elastic envelope spec "min:max" ("min" alone
// or "min:" leaves max at 0, the whole cluster).
func parseElastic(s string) (*slurm.ElasticConfig, error) {
	minPart, maxPart, _ := strings.Cut(s, ":")
	var el slurm.ElasticConfig
	if _, err := fmt.Sscanf(minPart, "%d", &el.Min); err != nil {
		return nil, fmt.Errorf("bad -elastic %q: want min:max", s)
	}
	if maxPart != "" {
		if _, err := fmt.Sscanf(maxPart, "%d", &el.Max); err != nil {
			return nil, fmt.Errorf("bad -elastic %q: want min:max", s)
		}
	}
	return &el, nil
}

// create opens path for writing, fatally on error.
func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func main() {
	jobs := flag.Int("jobs", 50, "number of jobs")
	nodes := flag.Int("nodes", 0, "cluster nodes (default: 20 preliminary, 65 realistic)")
	realistic := flag.Bool("realistic", false, "CG/Jacobi/N-body mix instead of FS")
	arrival := flag.String("arrival", "constant", "arrival shape: constant, diurnal (24 h day/night swing), or bursty (6 h submission storms)")
	fixed := flag.Bool("fixed", false, "run the workload rigid (no malleability)")
	async := flag.Bool("async", false, "asynchronous reconfiguration scheduling")
	moldable := flag.Bool("moldable", false, "moldable submissions (paper §X extension)")
	period := flag.Float64("period", -1, "checking-inhibitor period in seconds (-1: Table I defaults)")
	seed := flag.Int64("seed", 1, "workload seed")
	trace := flag.Bool("trace", false, "print evolution charts")
	events := flag.Bool("events", false, "print the controller event log")
	watch := flag.Float64("watch", 0, "print squeue-style status every N virtual seconds")
	acct := flag.Bool("acct", false, "print the accounting records as CSV")
	sleepAfter := flag.Float64("sleep", 0, "idle seconds before free nodes sleep")
	energyPolicy := flag.Bool("energypolicy", false, "energy-aware DMR policy instead of Algorithm 1")
	powerCap := flag.Float64("powercap", 0, "cluster power cap in watts: defer/throttle starts to stay under it")
	fastNodes := flag.Int("fastnodes", -1, "heterogeneous fleet: N reference-class nodes, the rest efficiency-class; jobs carry class demands")
	classAware := flag.Bool("classaware", false, "machine-class-aware placement and resize pricing (use with -fastnodes)")
	thermal := flag.Bool("thermal", false, "thermal envelopes: sustained load forces DVFS throttling")
	ladder := flag.Bool("ladder", false, "idle S-state ladder: 9 W suspend after 120 s idle, 4 W deep state after 600 s")
	elastic := flag.String("elastic", "", "elastic fleet envelope min:max — provision/power off nodes against queue pressure (max empty or 0: whole cluster)")
	mtbf := flag.Float64("mtbf", 0, "per-node mean time between failures in seconds: inject deterministic crashes (0 disables)")
	mttr := flag.Float64("mttr", 0, "mean time to repair a crashed node in seconds (0: one hour)")
	bootFailP := flag.Float64("bootfail", 0, "probability an elastic provision boot fails (use with -elastic)")
	ckpt := flag.Int("ckpt", 0, "periodic application checkpoint every N iterations: a crash-requeued job resumes from its last checkpoint (0 disables)")
	migrate := flag.Bool("migrate", false, "live-migration decision pass: checkpoint/restart running jobs across machine classes to evacuate, defragment or consolidate (use with -fastnodes)")
	traceFile := flag.String("tracefile", "", "write a Chrome trace-event JSON of the run (Perfetto-loadable)")
	metricsFile := flag.String("metricsfile", "", "write a telemetry registry snapshot (Prometheus text, or CSV when the path ends in .csv)")
	pprofFile := flag.String("pprof", "", "write a host CPU profile of the simulator run (go tool pprof)")
	rtraceFile := flag.String("rtrace", "", "write a host runtime/trace of the simulator run (go tool trace)")
	flag.Parse()

	if *pprofFile != "" {
		f := create(*pprofFile)
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *rtraceFile != "" {
		f := create(*rtraceFile)
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fatal(err)
		}
		defer rtrace.Stop()
	}

	var params workload.Params
	cfg := core.DefaultConfig()
	if *realistic {
		params = workload.Realistic(*jobs, *seed)
	} else {
		params = workload.Preliminary(*jobs, 1, *seed)
		cfg.Nodes = 20
	}
	if *nodes > 0 {
		cfg.Nodes = *nodes
	}
	shape, err := workload.NamedArrival(*arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmrsim:", err)
		fmt.Fprintln(os.Stderr, "usage: dmrsim -arrival constant|diurnal|bursty")
		os.Exit(2)
	}
	params.Arrival = shape
	cfg.Async = *async
	cfg.MoldableSubmissions = *moldable
	if *period >= 0 {
		cfg.SchedPeriod = sim.Seconds(*period)
	}
	if *ladder && *sleepAfter > 0 {
		fmt.Fprintln(os.Stderr, "dmrsim: -sleep and -ladder are mutually exclusive (the ladder fixes its own rung timings)")
		os.Exit(2)
	}
	if *sleepAfter > 0 {
		cfg.SleepLadder = []slurm.SleepRung{{AfterIdle: sim.Seconds(*sleepAfter)}}
	}
	if *ladder {
		cfg.SleepLadder = slurm.DefaultSleepLadder()
	}
	if *energyPolicy {
		cfg.Policy = core.EnergyAware
	}
	cfg.PowerCapW = *powerCap
	cfg.Thermal = *thermal
	if *elastic != "" {
		el, err := parseElastic(*elastic)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmrsim:", err)
			os.Exit(2)
		}
		cfg.Elastic = el
	}
	if *mtbf > 0 || *bootFailP > 0 {
		cfg.Faults = &faults.Config{
			MTBF:      sim.Seconds(*mtbf),
			MTTR:      sim.Seconds(*mttr),
			BootFailP: *bootFailP,
			Seed:      *seed,
		}
	}
	cfg.CkptEvery = *ckpt
	if *migrate {
		cfg.Migration = &slurm.MigrationConfig{}
	}
	if *fastNodes >= 0 {
		total := cfg.Nodes
		if total == 0 {
			total = platform.Marenostrum3().Nodes
		}
		if *fastNodes > total {
			fmt.Fprintf(os.Stderr, "dmrsim: -fastnodes %d exceeds the %d-node fleet\n", *fastNodes, total)
			os.Exit(2)
		}
		pc := platform.Marenostrum3()
		pc.Nodes = total
		// Skip empty classes, and bias the demand mix so jobs are only
		// ever pinned to a class the fleet actually provides (the
		// controller rejects unsatisfiable pins at submit).
		mix := workload.DefaultClassMix()
		switch *fastNodes {
		case 0:
			pc.Classes = []platform.MachineClass{{Count: total, Power: energy.EfficiencyProfile()}}
			mix.FastBias = 0
		case total:
			pc.Classes = []platform.MachineClass{{Count: total, Power: energy.DefaultProfile()}}
			mix.FastBias = 1
		default:
			pc.Classes = []platform.MachineClass{
				{Count: *fastNodes, Power: energy.DefaultProfile()},
				{Count: total - *fastNodes, Power: energy.EfficiencyProfile()},
			}
		}
		cfg.Platform = &pc
		params.ClassMix = mix
	}
	cfg.ClassAware = *classAware
	if *traceFile != "" || *metricsFile != "" {
		cfg.Telemetry = telemetry.New()
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dmrsim:", err)
		os.Exit(2)
	}

	specs := workload.Generate(params)
	specs = workload.SetFlexible(specs, !*fixed)
	sys := core.NewSystem(cfg)
	// The controller keeps no event log: -events records its own.
	var eventLog strings.Builder
	if *events {
		sys.Ctl.SubscribeEvents(func(e slurm.Event) {
			if !e.Kind.Probe() {
				fmt.Fprintf(&eventLog, "%12.3f  %-7s job %-4d nodes=%-3d %s\n",
					e.T.Seconds(), e.Kind, e.JobID, e.Nodes, e.Info)
			}
		})
	}
	sys.SubmitAll(specs)
	if *watch > 0 {
		period := sim.Seconds(*watch)
		var tick func()
		tick = func() {
			fmt.Printf("--- t=%.0fs ---\n%s", sys.Cluster.K.Now().Seconds(), sys.Ctl.FormatQueue())
			fmt.Print(sys.Ctl.FormatNodes())
			if sys.Ctl.CompletedJobs() < len(specs) {
				sys.Cluster.K.After(period, tick)
			}
		}
		sys.Cluster.K.After(period, tick)
	}
	res := sys.Run()

	mode := "flexible"
	if *fixed {
		mode = "fixed"
	}
	fmt.Printf("workload: %d jobs (%s), %d nodes, seed %d\n", res.Jobs, mode, sys.Ctl.TotalNodes(), *seed)
	if *fastNodes >= 0 {
		slowTouched := 0
		for _, j := range sys.Jobs() {
			if j.TouchedSlowClass() {
				slowTouched++
			}
		}
		placement := "class-blind"
		if *classAware {
			placement = "class-aware"
		}
		fmt.Printf("  fleet:                %4d fast + %d efficiency nodes (%s)\n",
			*fastNodes, sys.Ctl.TotalNodes()-*fastNodes, placement)
		fmt.Printf("  slow-class exposure:  %10d jobs\n", slowTouched)
	}
	fmt.Printf("  makespan:             %10.0f s\n", res.Makespan.Seconds())
	fmt.Printf("  avg waiting time:     %10.0f s\n", res.AvgWait.Seconds())
	fmt.Printf("  avg execution time:   %10.0f s\n", res.AvgExec.Seconds())
	fmt.Printf("  avg completion time:  %10.0f s\n", res.AvgCompletion.Seconds())
	fmt.Printf("  resource utilization: %10.2f %%\n", res.UtilRate)
	fmt.Printf("  reconfigurations:     %10d\n", res.Resizes)
	fmt.Printf("  cluster energy:       %10.0f kJ\n", res.EnergyJ/1e3)
	fmt.Printf("  avg cluster draw:     %10.0f W\n", res.AvgPowerW)
	fmt.Printf("  node wake-ups:        %10d\n", sys.Energy.Wakes())
	st := sys.Ctl.Stats()
	if cfg.Elastic != nil {
		fmt.Printf("  fleet online:         %10d nodes\n", sys.Ctl.FleetNodes())
		fmt.Printf("  node boots:           %10d\n", st.Boots)
		fmt.Printf("  node decommissions:   %10d\n", st.Decommissions)
		fmt.Printf("  p95 waiting time:     %10.0f s\n", res.P95Wait.Seconds())
	}
	if cfg.Faults != nil {
		fmt.Printf("  node failures:        %10d\n", st.Failures)
		fmt.Printf("  job requeues:         %10d\n", st.Requeues)
		fmt.Printf("  shrink recoveries:    %10d\n", st.Shrinks)
		fmt.Printf("  boot failures:        %10d\n", st.BootFails)
		fmt.Printf("  lost work:            %10.0f s\n", st.LostWorkS)
	}
	if cfg.Migration != nil {
		fmt.Printf("  migration orders:     %10d\n", st.MigrationOrders)
		fmt.Printf("  live migrations:      %10d\n", st.Migrations)
		fmt.Printf("  migration cost paid:  %10.0f s\n", st.MigratedS)
	}
	if *thermal {
		thermSec := 0.0
		for _, rec := range sys.Ctl.Accounting() {
			thermSec += rec.ThermalThrottledSec
		}
		// The thermal trace only samples DVFS steps: a run that never
		// crossed the envelope has no samples, so fall back to the live
		// node temperatures rather than reporting a bogus 0 °C.
		peak := 0.0
		if res.Temp != nil {
			peak = res.Temp.PeakC(res.Makespan)
		}
		for i := 0; i < sys.Energy.Nodes(); i++ {
			if c := sys.Energy.TempC(i); c > peak {
				peak = c
			}
		}
		fmt.Printf("  peak node temp:       %10.1f °C\n", peak)
		fmt.Printf("  thermal throttling:   %10.0f node-s\n", thermSec)
	}
	if cfg.PowerCapW > 0 {
		throttled := 0.0
		for _, rec := range sys.Ctl.Accounting() {
			throttled += rec.ThrottledSec
		}
		fmt.Printf("  power cap:            %10.0f W\n", cfg.PowerCapW)
		fmt.Printf("  peak cluster draw:    %10.0f W\n", res.Power.MaxPowerW(res.Makespan))
		fmt.Printf("  throttled job-time:   %10.0f s\n", throttled)
	}

	if *trace {
		fmt.Print(metrics.AsciiChart("allocated nodes", res.Trace,
			func(s metrics.Sample) int { return s.Alloc }, sys.Ctl.TotalNodes(), 72, res.Makespan))
		fmt.Print(metrics.AsciiChart("running jobs", res.Trace,
			func(s metrics.Sample) int { return s.Running }, 20, 72, res.Makespan))
		fmt.Print(metrics.AsciiChart("completed jobs", res.Trace,
			func(s metrics.Sample) int { return s.Completed }, res.Jobs, 72, res.Makespan))
	}
	fmt.Print(eventLog.String())
	if *acct {
		if err := sys.Ctl.WriteAccountingCSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *traceFile != "" {
		f := create(*traceFile)
		if err := cfg.Telemetry.Trace.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *metricsFile != "" {
		f := create(*metricsFile)
		write := cfg.Telemetry.Reg.WriteProm
		if strings.HasSuffix(*metricsFile, ".csv") {
			write = cfg.Telemetry.Reg.WriteCSV
		}
		if err := write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}
