package selectdmr

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
)

// newEnergyHarness mirrors newHarness with the EnergyAware plug-in.
func newEnergyHarness(t *testing.T, total, hold int, pendingSizes ...int) *harness {
	t.Helper()
	cfg := platform.Marenostrum3()
	cfg.Nodes = total
	cl := platform.New(cfg)
	scfg := slurm.DefaultConfig()
	scfg.Policy = NewEnergyAware(Policy{})
	ctl := slurm.NewController(cl, scfg)
	h := &harness{cl: cl, ctl: ctl}

	h.job = &slurm.Job{Name: "app", ReqNodes: hold, TimeLimit: sim.Hour, Flexible: true}
	h.job.Launch = func(j *slurm.Job, _ []*platform.Node) {
		cl.K.Spawn("app", func(p *sim.Proc) {
			p.Sleep(sim.Hour)
		})
	}
	ctl.Submit(h.job)
	for _, n := range pendingSizes {
		pj := &slurm.Job{Name: "pend", ReqNodes: n, TimeLimit: sim.Hour}
		ctl.Submit(pj)
		h.pend = append(h.pend, pj)
	}
	cl.K.RunUntil(2 * sim.Second)
	if h.job.State != slurm.StateRunning {
		t.Fatalf("holder job not running (state %v)", h.job.State)
	}
	return h
}

func TestEnergyEmptyQueueShrinksTowardMin(t *testing.T) {
	// Algorithm 1 would expand a lone job to its maximum; the
	// energy-aware policy shrinks it so freed nodes can sleep.
	h := newEnergyHarness(t, 65, 16)
	d := h.decide(slurm.ResizeRequest{MinProcs: 2, MaxProcs: 32, Factor: 2, Preferred: 16})
	if d.Action != slurm.Shrink || d.NewNodes != 2 {
		t.Fatalf("decision %+v, want shrink to 2", d)
	}
}

func TestEnergyEmptyQueueRespectsMin(t *testing.T) {
	// Already at the minimum: nothing to release.
	h := newEnergyHarness(t, 65, 16)
	d := h.decide(slurm.ResizeRequest{MinProcs: 16, MaxProcs: 32, Factor: 2})
	if d.Action != slurm.NoAction {
		t.Fatalf("decision %+v, want no action at the minimum", d)
	}
}

func TestEnergySparseQueueVetoesExpand(t *testing.T) {
	// One oversized pending job that no shrink can admit: Algorithm 1
	// line 20 would expand toward the max; the energy variant stays put.
	h := newEnergyHarness(t, 65, 4, 64)
	d := h.decide(slurm.ResizeRequest{MinProcs: 2, MaxProcs: 32, Factor: 2})
	if d.Action != slurm.NoAction {
		t.Fatalf("decision %+v, want vetoed expand", d)
	}
}

func TestEnergySparseQueueStillShrinksToAdmit(t *testing.T) {
	// Job holds 32 of 40; pending needs 16. Releasing nodes admits it:
	// the shrink-to-admit branch survives the energy bias.
	h := newEnergyHarness(t, 40, 32, 16)
	d := h.decide(slurm.ResizeRequest{MinProcs: 2, MaxProcs: 32, Factor: 2})
	if d.Action != slurm.Shrink {
		t.Fatalf("decision %+v, want shrink to admit the pending job", d)
	}
	if d.TargetJob != h.pend[0].ID {
		t.Fatalf("shrink targets job %d, want %d", d.TargetJob, h.pend[0].ID)
	}
}

func TestEnergyDenseQueueDefersToAlgorithm1(t *testing.T) {
	// Three pending jobs (the dense threshold), none startable and none
	// admittable by shrinking: Algorithm 1 line 20 expands toward the
	// max, and the dense branch lets it.
	h := newEnergyHarness(t, 65, 4, 64, 64, 64)
	d := h.decide(slurm.ResizeRequest{MinProcs: 2, MaxProcs: 32, Factor: 2})
	if d.Action != slurm.Expand {
		t.Fatalf("decision %+v, want Algorithm 1's expand under a dense queue", d)
	}
}

func TestEnergyHonorsApplicationBounds(t *testing.T) {
	// The application demands growth (min above current): the energy
	// bias must not override a correctness-driven request.
	h := newEnergyHarness(t, 65, 4)
	d := h.decide(slurm.ResizeRequest{MinProcs: 8, MaxProcs: 32, Factor: 2})
	if d.Action != slurm.Expand || d.NewNodes != 8 {
		t.Fatalf("decision %+v, want bounds-driven expand to 8", d)
	}
}
