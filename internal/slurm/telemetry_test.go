package slurm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// telemetryWorkload drives a controller with energy accounting, an idle
// sleep ladder, a power cap and an attached sink through a small but
// eventful workload (starts, backfill, cap throttling, sleeps, wakes),
// returning the sink for inspection.
func telemetryWorkload(t *testing.T) *telemetry.Sink {
	t.Helper()
	cl := testCluster(8)
	cfg := DefaultConfig()
	cfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	cfg.SleepLadder = DefaultSleepLadder()
	cfg.PowerCapW = 0.9 * 8 * cl.Nodes[0].Power.ActiveW(0)
	cfg.Telemetry = telemetry.New()
	c := NewController(cl, cfg)
	c.Submit(sleeperJob(c, "long", 6, 400*sim.Second))
	c.Submit(sleeperJob(c, "big", 8, 100*sim.Second))  // blocked head
	c.Submit(sleeperJob(c, "small", 2, 50*sim.Second)) // backfilled
	c.Submit(sleeperJob(c, "tail", 4, 100*sim.Second)) // runs after big
	cl.K.RunUntil(2000 * sim.Second)                   // long enough for idle nodes to sleep
	c.FlushTelemetry()
	return cfg.Telemetry
}

// TestTelemetryEnabledRun checks the instrumented controller records the
// events the workload provably produces, and that the recorded trace and
// metrics are deterministic across two identical runs (byte-for-byte).
func TestTelemetryEnabledRun(t *testing.T) {
	export := func() (string, string, int) {
		s := telemetryWorkload(t)
		var prom, csv bytes.Buffer
		if err := s.Reg.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		if err := s.Reg.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := s.Trace.WriteJSON(&trace); err != nil {
			t.Fatal(err)
		}
		return prom.String() + csv.String(), trace.String(), s.Trace.Len()
	}
	metrics1, trace1, n1 := export()
	metrics2, trace2, n2 := export()
	if metrics1 != metrics2 {
		t.Fatal("metrics exports differ across identical runs")
	}
	if trace1 != trace2 || n1 != n2 {
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

// TestTelemetryProfIsolated: the controller records no wall-clock
// instrument, so the deterministic registry export never depends on
// host speed.
func TestTelemetryProfIsolated(t *testing.T) {
	s := telemetryWorkload(t)
	var prom bytes.Buffer
	if err := s.Reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "wall") {
		t.Fatal("wall-clock metric leaked into the deterministic registry")
	}
}

// TestSampleFanOut: two subscribers both see every sample — the
// regression the subscription API exists for (Recorder.Attach used to
// silently overwrite the controller's single callback).
func TestSampleFanOut(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	var a, b []int
	c.SubscribeSamples(func(_ sim.Time, alloc, _, _, _ int) { a = append(a, alloc) })
	c.SubscribeSamples(func(_ sim.Time, alloc, _, _, _ int) { b = append(b, alloc) })
	c.Submit(sleeperJob(c, "j1", 2, 10*sim.Second))
	c.Submit(sleeperJob(c, "j2", 4, 10*sim.Second))
	cl.K.Run()
	if len(a) == 0 {
		t.Fatal("first subscriber saw no samples")
	}
	if len(a) != len(b) {
		t.Fatalf("subscribers diverged: %d vs %d samples", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestEventLogCap: with a cap, the retained Events slice is bounded but
// keeps (at least) the most recent cap entries in order, subscribers
// still observe the complete stream, and TotalEvents counts everything.
func TestEventLogCap(t *testing.T) {
	cl := testCluster(4)
	cfg := DefaultConfig()
	cfg.EventLogCap = 10
	c := NewController(cl, cfg)
	var streamed []Event
	c.SubscribeEvents(func(ev Event) { streamed = append(streamed, ev) })
	for i := 0; i < 30; i++ {
		c.Submit(sleeperJob(c, "j", 1, sim.Second))
	}
	cl.K.Run()
	total := int(c.TotalEvents())
	if total != len(streamed) {
		t.Fatalf("TotalEvents %d but subscriber saw %d", total, len(streamed))
	}
	if total < 90 { // 30 submits + 30 starts + 30 ends
		t.Fatalf("only %d events emitted", total)
	}
	if len(c.Events) >= total || len(c.Events) > 2*cfg.EventLogCap {
		t.Fatalf("retained %d of %d events with cap %d", len(c.Events), total, cfg.EventLogCap)
	}
	// The retained slice is the exact tail of the full stream.
	tail := streamed[len(streamed)-len(c.Events):]
	for i, ev := range c.Events {
		if ev != tail[i] {
			t.Fatalf("retained event %d = %+v, want %+v", i, ev, tail[i])
		}
	}
}

// TestEventLogUncapped: without a cap the controller retains every event
// (the dmrsim -events contract).
func TestEventLogUncapped(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	for i := 0; i < 20; i++ {
		c.Submit(sleeperJob(c, "j", 1, sim.Second))
	}
	cl.K.Run()
	if uint64(len(c.Events)) != c.TotalEvents() {
		t.Fatalf("retained %d of %d events without a cap", len(c.Events), c.TotalEvents())
	}
}
