package telemetry

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/slurm/selectdmr"
)

// testCluster builds an n-node cluster of the default platform; thermal
// gives every node the test envelope (throttle 95 °C, restore 70 °C,
// P0 equilibrates above the throttle point).
func testCluster(nodes int, thermal bool) *platform.Cluster {
	cfg := platform.Marenostrum3()
	cfg.Nodes = nodes
	if thermal {
		cfg.Power = energy.WithThermal(energy.DefaultProfile(),
			energy.Thermal{CapacityJPerC: 800, ConductanceWPerC: 4, AmbientC: 25, ThrottleC: 95, RestoreC: 70})
	}
	return platform.New(cfg)
}

// attached builds an energy-accounted controller (mod adjusts its
// config) with a fresh sink attached.
func attached(cl *platform.Cluster, mod func(*slurm.Config)) (*slurm.Controller, *Sink) {
	cfg := slurm.DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	c := slurm.NewController(cl, cfg)
	s := New()
	s.Attach(c)
	return c, s
}

// sleeper is a job whose application runs for d and completes; a
// requeued-away incarnation never completes the restart.
func sleeper(c *slurm.Controller, name string, nodes int, d sim.Time) *slurm.Job {
	j := &slurm.Job{Name: name, ReqNodes: nodes, TimeLimit: 20 * d}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		inc := j.Incarnation
		c.Kernel().Spawn(name, func(p *sim.Proc) {
			p.Sleep(d)
			if j.Incarnation == inc && j.State == slurm.StateRunning {
				c.JobComplete(j)
			}
		})
	}
	return j
}

// faultStub is a scripted slurm.FaultModel: crash delays in consultation
// order (0: that life never crashes), boot verdicts in order, then
// successes.
type faultStub struct {
	crash []sim.Time
	boots []bool
}

func (f *faultStub) NextCrash(sim.Time) (sim.Time, bool) {
	if len(f.crash) == 0 {
		return 0, false
	}
	d := f.crash[0]
	f.crash = f.crash[1:]
	return d, d > 0
}

func (f *faultStub) RepairTime() sim.Time { return 100 * sim.Second }

func (f *faultStub) BootFails() bool {
	if len(f.boots) == 0 {
		return false
	}
	fail := f.boots[0]
	f.boots = f.boots[1:]
	return fail
}

func (f *faultStub) BootRetry(int) sim.Time { return sim.Second }

// exports renders the sink's registry (Prometheus and CSV) and trace.
func exports(t *testing.T, s *Sink) (metrics, trace string) {
	t.Helper()
	var prom, csv, tr bytes.Buffer
	if err := s.Reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := s.Reg.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := s.Trace.WriteJSON(&tr); err != nil {
		t.Fatal(err)
	}
	return prom.String() + csv.String(), tr.String()
}

// nodeLabels returns the names of the node occupancy spans recorded.
func nodeLabels(s *Sink) []string {
	var out []string
	for _, e := range s.Trace.evs {
		if e.ph == 'X' && e.pid == tracePidNodes {
			out = append(out, e.name)
		}
	}
	return out
}

// telemetryWorkload drives a controller with energy accounting, an idle
// sleep ladder, a power cap and an attached sink through a small but
// eventful workload (starts, backfill, cap throttling, sleeps, wakes),
// returning the flushed sink.
func telemetryWorkload(t *testing.T) *Sink {
	t.Helper()
	cl := testCluster(8, false)
	c, s := attached(cl, func(cfg *slurm.Config) {
		cfg.SleepLadder = slurm.DefaultSleepLadder()
		cfg.PowerCapW = 0.9 * 8 * cl.Nodes[0].Power.ActiveW(0)
	})
	c.Submit(sleeper(c, "long", 6, 400*sim.Second))
	c.Submit(sleeper(c, "big", 8, 100*sim.Second))  // blocked head
	c.Submit(sleeper(c, "small", 2, 50*sim.Second)) // backfilled
	c.Submit(sleeper(c, "tail", 4, 100*sim.Second)) // runs after big
	cl.K.RunUntil(2000 * sim.Second)                // long enough for idle nodes to sleep
	s.Flush()
	return s
}

// TestTelemetryEnabledRun checks the attached sink records the events
// the workload provably produces, and that the recorded trace and
// metrics are deterministic across two identical runs (byte-for-byte).
func TestTelemetryEnabledRun(t *testing.T) {
	metrics1, trace1 := exports(t, telemetryWorkload(t))
	metrics2, trace2 := exports(t, telemetryWorkload(t))
	if metrics1 != metrics2 {
		t.Fatal("metrics exports differ across identical runs")
	}
	if trace1 != trace2 {
		t.Fatal("trace exports differ across identical runs")
	}
	for _, want := range []string{
		"sched_passes_total",
		"jobs_completed_total 4",
		"sched_backfill_starts_total",
		"node_sleep_total",
		"job_wait_seconds_count 4",
		"job_stretch_count 4",
	} {
		if !strings.Contains(metrics1, want) {
			t.Errorf("metrics export missing %q:\n%s", want, metrics1)
		}
	}
	// The trace must carry the three track-naming processes, job spans
	// and node occupancy spans.
	for _, want := range []string{
		`"name":"scheduler"`, `"name":"jobs"`, `"name":"nodes"`,
		`"name":"pend"`, `"name":"run w=`, `"ph":"X"`, `"ph":"i"`, `"ph":"C"`,
	} {
		if !strings.Contains(trace1, want) {
			t.Errorf("trace export missing %s", want)
		}
	}
}

// TestTelemetryProfIsolated: the controller subscription records no
// wall-clock instrument, so the deterministic registry export never
// depends on host speed.
func TestTelemetryProfIsolated(t *testing.T) {
	metrics, _ := exports(t, telemetryWorkload(t))
	if strings.Contains(metrics, "wall") {
		t.Fatal("wall-clock metric leaked into the deterministic registry")
	}
}

// TestSecondFlushAddsNothing: Flush closes the record once; flushing an
// already flushed sink changes neither export.
func TestSecondFlushAddsNothing(t *testing.T) {
	s := telemetryWorkload(t)
	metrics1, trace1 := exports(t, s)
	s.Flush()
	metrics2, trace2 := exports(t, s)
	if metrics1 != metrics2 || trace1 != trace2 {
		t.Fatal("a second Flush changed the exports")
	}
	New().Flush() // a sink without a controller flushes nothing
}

// TestNodeLabels drives one scenario per node state and checks the
// occupancy track names it.
func TestNodeLabels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		want  []string // regexps, each matching some node span
		drive func(t *testing.T) *Sink
	}{
		{"cap throttle and sleep", []string{`^j\d+$`, `^j\d+ p\d+$`, `^S\d+$`}, telemetryWorkload},
		{"expand dance", []string{`^held j\d+$`}, func(t *testing.T) *Sink {
			cl := testCluster(4, false)
			c, s := attached(cl, nil)
			a := c.Submit(sleeper(c, "a", 2, 100*sim.Second))
			c.SubmitResizer(a, 2, func(rj *slurm.Job) {
				cl.K.After(sim.Second, func() {
					parked := c.DetachNodes(rj)
					c.CancelResizer(rj)
					cl.K.After(sim.Second, func() { c.GrowJob(a, parked) })
				})
			})
			cl.K.Run()
			s.Flush()
			return s
		}},
		{"thermal floor", []string{`^j\d+ t\d+$`}, func(t *testing.T) *Sink {
			cl := testCluster(2, true)
			c, s := attached(cl, nil)
			c.Submit(sleeper(c, "hot", 2, 1000*sim.Second))
			cl.K.Run()
			s.Flush()
			return s
		}},
		{"crash", []string{`^failed$`}, func(t *testing.T) *Sink {
			// Init draws in node order: node 0 crashes at 6 s under the
			// running job, node 1 never, node 2 at 5 s while free.
			fm := &faultStub{crash: []sim.Time{6 * sim.Second, 0, 5 * sim.Second}}
			cl := testCluster(3, false)
			c, s := attached(cl, func(cfg *slurm.Config) { cfg.Faults = fm })
			c.Submit(sleeper(c, "rigid", 1, 50*sim.Second))
			cl.K.Run()
			s.Flush()
			return s
		}},
		{"elastic boots", []string{`^off$`, `^boot$`, `^unhealthy$`}, func(t *testing.T) *Sink {
			// Node 1 opens powered off; the wide job's demand provisions
			// it while the long job holds node 0, so every boot lands on
			// a free node, and three failures strike it out.
			fm := &faultStub{boots: []bool{true, true, true}}
			cl := testCluster(2, false)
			c, s := attached(cl, func(cfg *slurm.Config) {
				cfg.Elastic = &slurm.ElasticConfig{Min: 1, Interval: 10 * sim.Second}
				cfg.Faults = fm
			})
			c.Submit(sleeper(c, "long", 1, 900*sim.Second))
			c.Submit(sleeper(c, "wide", 2, 5*sim.Second))
			cl.K.Run()
			s.Flush()
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			labels := nodeLabels(tc.drive(t))
			for _, w := range tc.want {
				re := regexp.MustCompile(w)
				found := false
				for _, l := range labels {
					found = found || re.MatchString(l)
				}
				if !found {
					t.Errorf("no node span matches %s; labels %v", w, labels)
				}
			}
		})
	}
}

// TestCrashRequeueKeepsFailedSpan: a crash under a job with no failure
// hook requeues it inside the crash event, and the REQUEUE's release must
// not relabel the dead node at that instant; its track reads "failed"
// from the crash to the end of the 100 s repair.
func TestCrashRequeueKeepsFailedSpan(t *testing.T) {
	// Init draws in node order: node 0 crashes at 6 s under the job,
	// node 1 never.
	fm := &faultStub{crash: []sim.Time{6 * sim.Second, 0}}
	cl := testCluster(2, false)
	c, s := attached(cl, func(cfg *slurm.Config) { cfg.Faults = fm })
	c.Submit(sleeper(c, "rigid", 1, 50*sim.Second))
	cl.K.Run()
	s.Flush()
	var track []string
	for _, e := range s.Trace.evs {
		if e.ph == 'X' && e.pid == tracePidNodes && e.tid == 0 {
			track = append(track, fmt.Sprintf("%s@%v+%v", e.name, e.ts, e.dur))
		}
	}
	want := "failed@" + (6 * sim.Second).String() + "+" + (100 * sim.Second).String()
	if len(track) == 0 || track[len(track)-1] != want {
		t.Fatalf("node 0 track %v, want it to end with %s", track, want)
	}
}

// TestDecisionsCounted: every DMR round trip gets a decision span, and
// the verdict counters see the decisions the policy made.
func TestDecisionsCounted(t *testing.T) {
	cl := testCluster(4, false)
	c, s := attached(cl, func(cfg *slurm.Config) { cfg.Policy = &selectdmr.Policy{} })
	j := &slurm.Job{Name: "flex", ReqNodes: 2, TimeLimit: sim.Hour, Flexible: true}
	j.Launch = func(j *slurm.Job, _ []*platform.Node) {
		c.Kernel().Spawn("flex", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				c.ReconfigRPC(p, j, slurm.ResizeRequest{MinProcs: 1, MaxProcs: 4, Factor: 2})
			}
			c.JobComplete(j)
			c.ReconfigRPC(p, j, slurm.ResizeRequest{MinProcs: 1, MaxProcs: 4, Factor: 2}) // after the end: no policy
		})
	}
	c.Submit(j)
	cl.K.Run()
	s.Flush()
	if got := s.Reg.Counter("dmr_checks_total").Value(); got != 3 {
		t.Fatalf("dmr_checks_total %d, want 3", got)
	}
	verdicts := s.Reg.Counter("dmr_expand_total").Value() + s.Reg.Counter("dmr_shrink_total").Value() +
		s.Reg.Counter("dmr_noaction_total").Value()
	if verdicts != 3 {
		t.Fatalf("%d verdicts counted, want 3", verdicts)
	}
	spans := 0
	for _, e := range s.Trace.evs {
		if e.ph == 'X' && e.pid == tracePidSched && e.tid == traceTidDMR {
			spans++
		}
	}
	if spans != 4 {
		t.Fatalf("%d decision spans, want one per round trip (4)", spans)
	}
}

// TestFeatureInstrumentsOnlyWhenConfigured: a feature's instruments
// reach the registry only when the controller runs the feature, so a
// plain run's snapshot carries none of them.
func TestFeatureInstrumentsOnlyWhenConfigured(t *testing.T) {
	prefixes := []string{"elastic_", "fault_", "migration"}
	for _, tc := range []struct {
		name string
		mod  func(*slurm.Config)
		want string // the one feature prefix expected, "" for none
	}{
		{"plain", nil, ""},
		{"elastic", func(cfg *slurm.Config) { cfg.Elastic = &slurm.ElasticConfig{Min: 2} }, "elastic_"},
		{"faults", func(cfg *slurm.Config) { cfg.Faults = &faultStub{} }, "fault_"},
		{"migration", func(cfg *slurm.Config) {
			cfg.Policy = &selectdmr.Policy{}
			cfg.Migration = &slurm.MigrationConfig{}
		}, "migration"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := testCluster(4, false)
			c, s := attached(cl, tc.mod)
			c.Submit(sleeper(c, "j", 2, 10*sim.Second))
			cl.K.Run()
			s.Flush()
			metrics, _ := exports(t, s)
			for _, p := range prefixes {
				if has := strings.Contains(metrics, "\n"+p) || strings.HasPrefix(metrics, p); has != (p == tc.want) {
					t.Errorf("registry has %s* instruments: %v, want %v", p, has, p == tc.want)
				}
			}
		})
	}
}

// TestAttachTwicePanics: a sink records one controller.
func TestAttachTwicePanics(t *testing.T) {
	cl := testCluster(2, false)
	c, s := attached(cl, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	s.Attach(c)
}
