package nanos_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/energy"
	"repro/internal/nanos"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/slurm/selectdmr"
)

// scriptedFaults is a scripted slurm.FaultModel: crash draws replay the
// delays queue in consultation order (node index order at controller
// init, event order afterwards), 0 meaning "this life never crashes".
type scriptedFaults struct {
	delays []sim.Time
	i      int
	repair sim.Time
}

func (s *scriptedFaults) NextCrash(_ sim.Time, _ string) (sim.Time, bool) {
	if s.i >= len(s.delays) {
		return 0, false
	}
	d := s.delays[s.i]
	s.i++
	return d, d > 0
}

func (s *scriptedFaults) RepairTime() sim.Time   { return s.repair }
func (s *scriptedFaults) BootFails() bool        { return false }
func (s *scriptedFaults) BootRetry(int) sim.Time { return sim.Minute }

// faultRig builds a cluster and controller with the Algorithm 1 policy,
// an energy accountant (the fault machinery runs on its meters), and a
// scripted fault model.
func faultRig(nodes int, fm slurm.FaultModel) (*platform.Cluster, *slurm.Controller) {
	pc := platform.Marenostrum3()
	pc.Nodes = nodes
	cl := platform.New(pc)
	scfg := slurm.DefaultConfig()
	scfg.SchedDelay = 100 * sim.Millisecond
	scfg.Policy = selectdmr.New()
	scfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	scfg.Faults = fm
	return cl, slurm.NewController(cl, scfg)
}

// submitApp wires a job through the production path: nanos.Launch
// running apps.Run, with the per-job RecoveryState outliving requeues
// exactly as core.Submit arranges it.
func submitApp(ctl *slurm.Controller, name string, nodes int, acfg apps.Config, flexible bool) *slurm.Job {
	app := apps.New(acfg.Class)
	rcfg := nanos.DefaultConfig()
	rcfg.FaultAware = acfg.Malleable
	j := &slurm.Job{Name: name, ReqNodes: nodes, TimeLimit: sim.Hour, Flexible: flexible}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		nanos.Launch(ctl, j, rcfg, func(w *nanos.Worker) { apps.Run(w, acfg, app) })
	}
	return ctl.Submit(j)
}

// A node under a malleable job crashes mid-batch: the next reconfiguring
// point detects it, the survivors shrink onto their own nodes, the
// interrupted batch is redone and charged as lost work, and the job
// finishes on the smaller set without ever being requeued.
func TestFaultMalleableShrinksToSurvivors(t *testing.T) {
	fm := &scriptedFaults{delays: []sim.Time{0, 0, 25 * sim.Second, 0}, repair: 500 * sim.Second}
	cl, ctl := faultRig(4, fm)
	acfg := apps.Config{
		Class: apps.ClassFS, Iterations: 10, MinProcs: 1, MaxProcs: 4, Factor: 2,
		Model:     apps.ConstantPerformance(10 * sim.Second),
		DataBytes: 1 << 20, ProblemN: 16, StepsPerCheck: 1,
		Malleable: true,
		Recovery:  &apps.RecoveryState{},
	}
	finalSize := 0
	acfg.Final = func(w *nanos.Worker, _ apps.Chunk) {
		if w.R.Rank() == 0 {
			finalSize = w.R.Size()
		}
	}
	j := submitApp(ctl, "flex", 4, acfg, true)
	cl.K.Run()
	if j.State != slurm.StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if finalSize != 3 {
		t.Fatalf("finished with %d ranks, want 3 survivors", finalSize)
	}
	fs := ctl.FaultStats()
	if fs.Failures != 1 || fs.Shrinks != 1 || fs.Requeues != 0 {
		t.Fatalf("stats %+v, want one crash recovered by one shrink", fs)
	}
	// The crash at t=25 lands inside the batch that started at ~20.1; the
	// check at ~30.1 detects it and redoes the batch on the survivors.
	if fs.LostWorkS < 9 || fs.LostWorkS > 11 {
		t.Fatalf("lost work %.1f s, want ≈10 (one redone batch)", fs.LostWorkS)
	}
	if j.Requeues != 0 {
		t.Fatalf("requeues %d", j.Requeues)
	}
	if live := cl.K.LiveProcs(); len(live) != 0 {
		t.Fatalf("stuck processes: %v", live)
	}
}

// A crash that leaves fewer survivors than the application's minimum
// cannot shrink: the reconfiguring point requeues the job instead, and
// it restarts from scratch once the repaired node returns.
func TestFaultMalleableRequeuesBelowMin(t *testing.T) {
	fm := &scriptedFaults{delays: []sim.Time{0, 25 * sim.Second}, repair: 30 * sim.Second}
	cl, ctl := faultRig(2, fm)
	acfg := apps.Config{
		Class: apps.ClassFS, Iterations: 6, MinProcs: 2, MaxProcs: 2, Factor: 2,
		Model:     apps.ConstantPerformance(10 * sim.Second),
		DataBytes: 1 << 20, ProblemN: 16, StepsPerCheck: 1,
		Malleable: true,
		Recovery:  &apps.RecoveryState{},
	}
	j := submitApp(ctl, "narrow", 2, acfg, true)
	cl.K.Run()
	if j.State != slurm.StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	fs := ctl.FaultStats()
	if fs.Failures != 1 || fs.Requeues != 1 || fs.Shrinks != 0 {
		t.Fatalf("stats %+v, want one crash recovered by requeue", fs)
	}
	if j.Requeues != 1 {
		t.Fatalf("requeues %d", j.Requeues)
	}
	// No checkpoints: the whole run up to the detection point is lost.
	if fs.LostWorkS < 25 || fs.LostWorkS > 35 {
		t.Fatalf("lost work %.1f s, want ≈30 (start to detection)", fs.LostWorkS)
	}
	// The restart needs both nodes back: repair ends ~55 s, then 6 full
	// iterations rerun from scratch.
	if j.EndTime < 110*sim.Second {
		t.Fatalf("end %v, want ≥ 110 s (repair + full rerun)", j.EndTime)
	}
	if live := cl.K.LiveProcs(); len(live) != 0 {
		t.Fatalf("stuck processes: %v", live)
	}
}

// A rigid job under a periodic checkpoint policy: the crash requeues it
// immediately (no detection delay — the controller kills rigid jobs in
// the crash event), but the restart resumes from the last completed
// checkpoint, so only the work since that checkpoint is lost.
func TestFaultRigidResumesFromCheckpoint(t *testing.T) {
	fm := &scriptedFaults{delays: []sim.Time{45 * sim.Second, 0}, repair: 30 * sim.Second}
	cl, ctl := faultRig(2, fm)
	acfg := apps.Config{
		Class: apps.ClassFS, Iterations: 10, MinProcs: 2, MaxProcs: 2, Factor: 2,
		Model:     apps.ConstantPerformance(10 * sim.Second),
		DataBytes: 64 << 20, ProblemN: 16, StepsPerCheck: 1,
		CkptEvery: 2,
		Recovery:  &apps.RecoveryState{},
	}
	j := submitApp(ctl, "rigid", 2, acfg, false)
	cl.K.Run()
	if j.State != slurm.StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if j.Requeues != 1 {
		t.Fatalf("requeues %d", j.Requeues)
	}
	if !acfg.Recovery.HasCkpt || acfg.Recovery.Iter < 4 {
		t.Fatalf("recovery state %+v, want a checkpoint at iteration ≥ 4", *acfg.Recovery)
	}
	// Protected at the iteration-4 checkpoint (~40 s): the crash at 45 s
	// loses only the few seconds since, not the 45 s from the start.
	fs := ctl.FaultStats()
	if fs.LostWorkS <= 0 || fs.LostWorkS >= 20 {
		t.Fatalf("lost work %.1f s, want small (protected by the checkpoint)", fs.LostWorkS)
	}
	// Resuming at iteration 4 after the ~75 s restart beats any
	// from-scratch rerun (which could not finish before ~175 s).
	if j.EndTime >= 170*sim.Second {
		t.Fatalf("end %v: restart did not resume from the checkpoint", j.EndTime)
	}
	if live := cl.K.LiveProcs(); len(live) != 0 {
		t.Fatalf("stuck processes: %v", live)
	}
}
