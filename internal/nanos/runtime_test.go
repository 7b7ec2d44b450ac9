package nanos_test

import (
	"fmt"
	"testing"

	"repro/internal/nanos"
	"repro/internal/platform"
	"repro/internal/redist"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/slurm/selectdmr"
)

// tblock is a contiguous chunk of a globally distributed vector,
// remembering its global offset.
type tblock struct {
	lo   int
	vals []float64
}

func (b tblock) CloneData() any {
	out := make([]float64, len(b.vals))
	copy(out, b.vals)
	return tblock{lo: b.lo, vals: out}
}

// env is a full test rig: cluster, controller with the Algorithm 1
// policy, and bookkeeping shared with the test app.
type env struct {
	cl  *platform.Cluster
	ctl *slurm.Controller

	mu struct { // single-threaded sim; "mu" is just a namespace
		iterations int
		final      []float64
		finalSize  int
		sizes      []int // size observed at each executed iteration
	}
}

func newEnv(nodes int) *env { return newEnvDelay(nodes, 100*sim.Millisecond) }

func newEnvDelay(nodes int, schedDelay sim.Time) *env {
	cfg := platform.Marenostrum3()
	cfg.Nodes = nodes
	cl := platform.New(cfg)
	scfg := slurm.DefaultConfig()
	scfg.SchedDelay = schedDelay
	scfg.Policy = selectdmr.New()
	return &env{cl: cl, ctl: slurm.NewController(cl, scfg)}
}

// appCfg parameterizes the Listing-3 style test application.
type appCfg struct {
	iters    int
	stepTime sim.Time
	n        int // global vector length
	req      nanos.Request
	useAsync bool
}

// makeApp returns a malleable rank main implementing the paper's
// Listing 3 over tblock data.
func (e *env) makeApp(cfg appCfg) func(w *nanos.Worker) {
	return func(w *nanos.Worker) {
		var blk tblock
		if w.InitData() != nil {
			blk = w.InitData().(tblock)
		} else {
			lo, hi := redist.Offset(cfg.n, w.R.Size(), w.R.Rank()), redist.Offset(cfg.n, w.R.Size(), w.R.Rank()+1)
			blk = tblock{lo: lo, vals: make([]float64, hi-lo)}
			for i := range blk.vals {
				blk.vals[i] = float64(lo + i)
			}
		}
		for t := w.StartIter(); t < cfg.iters; t++ {
			var action slurm.Action
			var h *nanos.Handler
			if cfg.useAsync {
				action, h = w.ICheckStatus(cfg.req)
			} else {
				action, h = w.CheckStatus(cfg.req)
			}
			if action == slurm.NoAction {
				w.R.Proc().Sleep(cfg.stepTime)
				if w.R.Rank() == 0 {
					e.mu.iterations++
					e.mu.sizes = append(e.mu.sizes, w.R.Size())
				}
				continue
			}
			oldP, newP := w.R.Size(), h.NewSize
			r := w.R.Rank()
			bytes := int64(len(blk.vals) * 8)
			if action == slurm.Expand {
				factor, ok := redist.ExpandFactor(oldP, newP)
				if !ok {
					panic(fmt.Sprintf("non-homogeneous expand %d->%d", oldP, newP))
				}
				parts := redist.Split(blk.vals, factor)
				off := blk.lo
				for i, part := range parts {
					sub := tblock{lo: off, vals: part}
					off += len(part)
					w.Offload(redist.ExpandDest(r, factor, i), sub, bytes/int64(factor), t)
				}
			} else { // shrink
				factor, ok := redist.ShrinkFactor(oldP, newP)
				if !ok {
					panic(fmt.Sprintf("non-homogeneous shrink %d->%d", oldP, newP))
				}
				sender, dst := redist.ShrinkRole(r, factor)
				if sender {
					w.R.Send(dst, 0, blk, bytes)
				} else {
					merged := tblock{lo: -1}
					pieces := make([]tblock, factor)
					for i := 0; i < factor-1; i++ {
						src := r - factor + 1 + i
						pieces[i] = w.R.Recv(src, 0).Data.(tblock)
					}
					pieces[factor-1] = blk
					merged.lo = pieces[0].lo
					for _, pc := range pieces {
						merged.vals = append(merged.vals, pc.vals...)
					}
					w.Offload(dst, merged, bytes*int64(factor), t)
				}
			}
			w.Taskwait()
			return
		}
		// Application finished: collect the global vector for checking.
		all := w.R.AllgatherFloats(blk.vals)
		if w.R.Rank() == 0 {
			e.mu.final = all
			e.mu.finalSize = w.R.Size()
		}
	}
}

// submitFlexible submits a malleable job running the test app.
func (e *env) submitFlexible(name string, nodes int, cfg appCfg, rcfg nanos.Config) *slurm.Job {
	j := &slurm.Job{Name: name, ReqNodes: nodes, TimeLimit: sim.Hour, Flexible: true}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		nanos.Launch(e.ctl, j, rcfg, e.makeApp(cfg))
	}
	return e.ctl.Submit(j)
}

// submitRigid submits a plain sleeper.
func (e *env) submitRigid(name string, nodes int, d sim.Time) *slurm.Job {
	j := &slurm.Job{Name: name, ReqNodes: nodes, TimeLimit: d + sim.Second}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		e.cl.K.Spawn(name, func(p *sim.Proc) {
			p.Sleep(d)
			e.ctl.JobComplete(j)
		})
	}
	return e.ctl.Submit(j)
}

func checkVector(t *testing.T, e *env, n int) {
	t.Helper()
	if len(e.mu.final) != n {
		t.Fatalf("final vector has %d elements, want %d", len(e.mu.final), n)
	}
	for i, v := range e.mu.final {
		if v != float64(i) {
			t.Fatalf("final[%d] = %v after redistribution(s)", i, v)
		}
	}
}

func TestExpandLoneJobToMax(t *testing.T) {
	e := newEnv(8)
	cfg := appCfg{iters: 10, stepTime: sim.Second, n: 96,
		req: nanos.Request{Min: 1, Max: 8, Factor: 2}}
	j := e.submitFlexible("grow", 2, cfg, nanos.DefaultConfig())
	e.cl.K.Run()
	if j.State != slurm.StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	checkVector(t, e, 96)
	if e.mu.finalSize != 8 {
		t.Fatalf("finished with %d ranks, want 8 (lone job expands to max)", e.mu.finalSize)
	}
	if e.ctl.FreeNodes() != 8 {
		t.Fatalf("node leak: %d free", e.ctl.FreeNodes())
	}
	if got := e.mu.iterations; got != 10 {
		t.Fatalf("executed %d iterations in total, want exactly 10", got)
	}
	if live := e.cl.K.LiveProcs(); len(live) != 0 {
		t.Fatalf("stuck processes: %v", live)
	}
}

func TestShrinkAdmitsQueuedJob(t *testing.T) {
	e := newEnv(8)
	cfg := appCfg{iters: 30, stepTime: sim.Second, n: 64,
		req: nanos.Request{Min: 2, Max: 8, Factor: 2}}
	flex := e.submitFlexible("flex", 8, cfg, nanos.DefaultConfig())
	var rigid *slurm.Job
	e.cl.K.At(3*sim.Second, func() { rigid = e.submitRigid("rigid", 4, 10*sim.Second) })
	e.cl.K.Run()
	if flex.State != slurm.StateCompleted || rigid.State != slurm.StateCompleted {
		t.Fatalf("states flex=%v rigid=%v", flex.State, rigid.State)
	}
	checkVector(t, e, 64)
	// The job must have run some iterations shrunk to 4, then — once the
	// rigid job finished — the policy re-expands it (wide optimization).
	shrunk := false
	for _, s := range e.mu.sizes {
		if s == 4 {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatalf("iteration sizes %v: never ran at 4 ranks", e.mu.sizes)
	}
	// The rigid job must have started before flex finished: the whole
	// point of the shrink.
	if rigid.StartTime >= flex.EndTime {
		t.Fatal("rigid job did not benefit from the shrink")
	}
	if flex.ResizeCount < 2 {
		t.Fatalf("resize count %d, want shrink then re-expand", flex.ResizeCount)
	}
}

func TestInhibitorSuppressesRPCs(t *testing.T) {
	e := newEnv(4)
	cfg := appCfg{iters: 20, stepTime: sim.Second, n: 32,
		req: nanos.Request{Min: 4, Max: 4, Factor: 2}} // min==max: no resize possible
	rcfg := nanos.DefaultConfig()
	rcfg.SchedPeriod = 5 * sim.Second
	var rt *nanos.Runtime
	j := &slurm.Job{Name: "inh", ReqNodes: 4, TimeLimit: sim.Hour, Flexible: true}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		rt = nanos.Launch(e.ctl, j, rcfg, e.makeApp(cfg))
	}
	e.ctl.Submit(j)
	e.cl.K.Run()
	if rt == nil {
		t.Fatal("runtime not captured")
	}
	st := rt.Stats
	if st.Checks != 20 {
		t.Fatalf("served %d checks, want 20", st.Checks)
	}
	// 20 one-second steps with a 5s inhibitor: roughly 4 RPCs, the rest
	// inhibited.
	if st.RPCs > 6 {
		t.Fatalf("%d RPCs, inhibitor should have suppressed most", st.RPCs)
	}
	if st.Inhibited < 14 {
		t.Fatalf("only %d calls inhibited", st.Inhibited)
	}
}

func TestAsyncDecisionDelayedOneStep(t *testing.T) {
	e := newEnv(8)
	cfg := appCfg{iters: 10, stepTime: sim.Second, n: 64,
		req: nanos.Request{Min: 1, Max: 8, Factor: 2}, useAsync: true}
	rcfg := nanos.DefaultConfig()
	rcfg.Async = true
	j := e.submitFlexible("async", 2, cfg, rcfg)
	e.cl.K.Run()
	if j.State != slurm.StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	checkVector(t, e, 64)
	// The first decision is computed during step 0 and applied at the
	// step-1 check, so at least one full iteration runs at the initial
	// size before any expansion.
	if len(e.mu.sizes) == 0 || e.mu.sizes[0] != 2 {
		t.Fatalf("iteration sizes %v; first step must run at the submit size", e.mu.sizes)
	}
	if e.mu.finalSize != 8 {
		t.Fatalf("final size %d, want 8", e.mu.finalSize)
	}
}

func TestExpandTimeoutAborts(t *testing.T) {
	// Reproduces §V-B1's abort path: the policy grants an expansion
	// while nodes look free, but before the resizer job is allocated a
	// competing submission takes them; the resizer stays pending past
	// the threshold and the action is aborted.
	e := newEnvDelay(8, sim.Millisecond)
	cfg := appCfg{iters: 6, stepTime: 20 * sim.Second, n: 32,
		req: nanos.Request{Min: 2, Max: 8, Factor: 2}}
	rcfg := nanos.DefaultConfig()
	rcfg.ExpandTimeout = 3 * sim.Second
	var rt *nanos.Runtime
	j := &slurm.Job{Name: "victim", ReqNodes: 2, TimeLimit: sim.Hour, Flexible: true}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		rt = nanos.Launch(e.ctl, j, rcfg, e.makeApp(cfg))
	}
	e.ctl.Submit(j)
	// Timeline: job starts and checks at ~1ms; the decision lands after
	// the 5ms RPC latency plus the 100ms controller service (~106ms,
	// queue empty → expand to max); the resizer is submitted at ~111ms.
	// The thief arrives at 107ms and is scheduled at 108ms — inside the
	// decision/submission window — stealing all six free nodes.
	e.cl.K.At(107*sim.Millisecond, func() {
		e.submitRigid("thief", 6, 200*sim.Second)
	})
	e.cl.K.Run()
	if rt == nil {
		t.Fatal("runtime not captured")
	}
	if rt.Stats.ExpandAborts == 0 {
		t.Fatalf("expected at least one aborted expansion; stats %+v", rt.Stats)
	}
	if j.State != slurm.StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
}

func TestRepeatedResizeConservesData(t *testing.T) {
	// Force a grow-then-shrink-then-grow sequence by scheduling rigid
	// jobs around a long-running flexible one.
	e := newEnv(16)
	cfg := appCfg{iters: 60, stepTime: sim.Second, n: 128,
		req: nanos.Request{Min: 2, Max: 16, Factor: 2}}
	flex := e.submitFlexible("wave", 2, cfg, nanos.DefaultConfig())
	e.cl.K.At(10*sim.Second, func() { e.submitRigid("r1", 8, 15*sim.Second) })
	e.cl.K.At(40*sim.Second, func() { e.submitRigid("r2", 8, 10*sim.Second) })
	e.cl.K.Run()
	if flex.State != slurm.StateCompleted {
		t.Fatalf("flex state %v", flex.State)
	}
	checkVector(t, e, 128)
	if flex.ResizeCount < 2 {
		t.Fatalf("resize count %d, want a grow/shrink sequence", flex.ResizeCount)
	}
	if e.mu.iterations != 60 {
		t.Fatalf("%d iterations executed, want 60", e.mu.iterations)
	}
}

func TestShrinkWaitsForAllAcks(t *testing.T) {
	// Verify the released nodes are not reusable until every old rank
	// acknowledged: the shrink happens while one rank drags its feet in
	// data merging — ShrinkJob must come after all sends.
	e := newEnv(8)
	cfg := appCfg{iters: 20, stepTime: sim.Second, n: 64,
		req: nanos.Request{Min: 2, Max: 8, Factor: 2}}
	flex := e.submitFlexible("acks", 8, cfg, nanos.DefaultConfig())
	e.cl.K.At(2*sim.Second, func() { e.submitRigid("waiter", 4, 5*sim.Second) })

	//simcheck:allow simtime -1 is a "not yet observed" sentinel, not a duration
	shrinkAt := sim.Time(-1)
	e.ctl.SubscribeEvents(func(ev slurm.Event) {
		if ev.Kind == slurm.EvShrink && shrinkAt < 0 {
			shrinkAt = ev.T
		}
	})
	e.cl.K.Run()
	if shrinkAt < 0 {
		t.Fatal("no shrink happened")
	}
	if flex.State != slurm.StateCompleted {
		t.Fatalf("flex state %v", flex.State)
	}
	checkVector(t, e, 64)
}

func TestSpawnedWorkerSeesParent(t *testing.T) {
	e := newEnv(4)
	sawSpawned := false
	app := func(w *nanos.Worker) {
		if w.Spawned() {
			sawSpawned = true
			// Spawned ranks resume with data and a start iteration.
			if w.InitData() == nil {
				t.Error("spawned worker has no init data")
			}
			return
		}
		action, h := w.CheckStatus(nanos.Request{Min: 1, Max: 4, Factor: 2})
		if action != slurm.Expand {
			t.Errorf("lone 1-rank job expected expand, got %v", action)
			return
		}
		for i := 0; i < h.NewSize; i++ {
			w.Offload(i, tblock{lo: 0, vals: []float64{1}}, 8, 3)
		}
		w.Taskwait()
	}
	j := &slurm.Job{Name: "spawncheck", ReqNodes: 1, TimeLimit: sim.Hour, Flexible: true}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		nanos.Launch(e.ctl, j, nanos.DefaultConfig(), app)
	}
	e.ctl.Submit(j)
	e.cl.K.Run()
	if !sawSpawned {
		t.Fatal("no spawned worker ran")
	}
	if j.State != slurm.StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
}

func TestHandlerMPIRoundTrip(t *testing.T) {
	// Direct use of the mpi layer alongside nanos: ensure tags don't
	// collide with runtime tags.
	e := newEnv(2)
	done := false
	app := func(w *nanos.Worker) {
		if w.R.Rank() == 0 {
			w.R.Send(1, 0, []float64{42}, 8)
			m := w.R.Recv(1, 1)
			if m.Data.([]float64)[0] != 84 {
				t.Errorf("echo got %v", m.Data)
			}
			done = true
		} else {
			v := w.R.Recv(0, 0).Data.([]float64)[0]
			w.R.Send(0, 1, []float64{v * 2}, 8)
		}
	}
	j := &slurm.Job{Name: "echo", ReqNodes: 2, TimeLimit: sim.Hour}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		nanos.Launch(e.ctl, j, nanos.DefaultConfig(), app)
	}
	e.ctl.Submit(j)
	e.cl.K.Run()
	if !done {
		t.Fatal("echo incomplete")
	}
}
