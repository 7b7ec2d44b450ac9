package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// lifecycleLog subscribes to the system's controller and renders every
// lifecycle event (probes skipped) as one line, counting them; each
// event is also handed to also, when non-nil.
func lifecycleLog(sys *core.System, also func(slurm.Event)) (*bytes.Buffer, *int) {
	var log bytes.Buffer
	n := 0
	sys.Ctl.SubscribeEvents(func(ev slurm.Event) {
		if ev.Kind.Probe() {
			return
		}
		n++
		fmt.Fprintf(&log, "%d %v %d %d %s\n", int64(ev.T), ev.Kind, ev.JobID, ev.Nodes, ev.Info)
		if also != nil {
			also(ev)
		}
	})
	return &log, &n
}

// TestSchedulerDeterminismGolden pins the complete observable behavior of
// the simulator on the 50-job realistic workload (flexible, with energy
// accounting and idle sleep): the kernel's process-resume trace, the
// controller's event log, and the accounting CSV, all golden-pinned. The
// goldens were generated before the scheduler/kernel hot-path rewrite, so
// this test is the oracle proving the optimized paths (indexed free
// pools, pass-scoped placement cache, snapshot-priority queue, value-heap
// calendar) are bit-identical to the reference implementation: a single
// reordered event, start decision or re-timed sample shows up here.
func TestSchedulerDeterminismGolden(t *testing.T) {
	specs := workload.SetFlexible(workload.Generate(workload.Realistic(50, DefaultSeed)), true)
	sys := core.NewSystem(energyConfig(false))

	var trace bytes.Buffer
	resumes := 0
	sys.Cluster.K.Trace = func(tm sim.Time, what string) {
		resumes++
		fmt.Fprintf(&trace, "%d %s\n", int64(tm), what)
	}
	events, ctlEvents := lifecycleLog(sys, nil)
	sys.SubmitAll(specs)
	res := sys.Run()

	var acct bytes.Buffer
	if err := sys.Ctl.WriteAccountingCSV(&acct); err != nil {
		t.Fatal(err)
	}

	summary := fmt.Sprintf("jobs %d\nmakespan_s %.3f\nenergy_j %.1f\n"+
		"kernel_events %d\nproc_resumes %d\nresume_trace_sha256 %x\n"+
		"ctl_events %d\nctl_events_sha256 %x\n",
		res.Jobs, res.Makespan.Seconds(), res.EnergyJ,
		sys.Cluster.K.Events(), resumes, sha256.Sum256(trace.Bytes()),
		*ctlEvents, sha256.Sum256(events.Bytes()))
	checkGolden(t, "determinism_50j_summary.txt", []byte(summary))
	checkGolden(t, "determinism_50j_accounting.csv", acct.Bytes())
}

// TestSchedulerDeterminismGoldenThermalLadder pins the same oracle with
// the node power-state dynamics switched ON: thermal envelopes on every
// node (sustained load forces DVFS throttling) and a two-rung S-state
// ladder (idle nodes sink from the 9 W suspend to the 4 W deep state).
// Future hot-path or policy work cannot silently re-time a thermal
// crossing, a ladder descent, or the wake pricing they feed — and the
// sibling test above proves the dynamics are byte-invisible when off.
func TestSchedulerDeterminismGoldenThermalLadder(t *testing.T) {
	specs := workload.SetFlexible(workload.Generate(workload.Realistic(50, DefaultSeed)), true)
	cfg := energyConfig(false)
	cfg.SleepLadder = slurm.DefaultSleepLadder()
	cfg.Thermal = true
	sys := core.NewSystem(cfg)

	var trace bytes.Buffer
	resumes := 0
	sys.Cluster.K.Trace = func(tm sim.Time, what string) {
		resumes++
		fmt.Fprintf(&trace, "%d %s\n", int64(tm), what)
	}
	throttles, restores, sleeps := 0, 0, 0
	events, ctlEvents := lifecycleLog(sys, func(ev slurm.Event) {
		switch ev.Kind {
		case slurm.EvThermalThrottle:
			throttles++
		case slurm.EvThermalRestore:
			restores++
		case slurm.EvSleep:
			sleeps++
		}
	})
	sys.SubmitAll(specs)
	res := sys.Run()

	if throttles == 0 {
		t.Fatal("the thermal workload never crossed an envelope — the golden would pin nothing")
	}
	var acct bytes.Buffer
	if err := sys.Ctl.WriteAccountingCSV(&acct); err != nil {
		t.Fatal(err)
	}

	summary := fmt.Sprintf("jobs %d\nmakespan_s %.3f\nenergy_j %.1f\n"+
		"therm_throttles %d\ntherm_restores %d\nsleep_steps %d\npeak_temp_c %.2f\n"+
		"kernel_events %d\nproc_resumes %d\nresume_trace_sha256 %x\n"+
		"ctl_events %d\nctl_events_sha256 %x\n",
		res.Jobs, res.Makespan.Seconds(), res.EnergyJ,
		throttles, restores, sleeps, res.Temp.PeakC(res.Makespan),
		sys.Cluster.K.Events(), resumes, sha256.Sum256(trace.Bytes()),
		*ctlEvents, sha256.Sum256(events.Bytes()))
	checkGolden(t, "determinism_50j_thermal_summary.txt", []byte(summary))
	checkGolden(t, "determinism_50j_thermal_accounting.csv", acct.Bytes())
}
