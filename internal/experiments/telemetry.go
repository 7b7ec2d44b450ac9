package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TelemetryRun is one fully-instrumented execution of the realistic
// flexible workload: the standard energy setup with the telemetry sink
// attached, yielding the Chrome trace, the metrics registry and the
// usual workload result from a single simulation.
type TelemetryRun struct {
	Sink        *telemetry.Sink
	Result      *metrics.WorkloadResult
	TotalEvents uint64 // every controller event emitted
}

// Telemetry executes the seeded realistic workload (flexible, energy
// accounting, idle sleep — the determinism goldens' configuration) with
// the telemetry sink attached. The sink's exports are deterministic:
// two runs with equal (jobs, seed) produce byte-identical trace JSON
// and registry snapshots.
func Telemetry(jobs int, seed int64) *TelemetryRun {
	specs := workload.SetFlexible(workload.Generate(workload.Realistic(jobs, seed)), true)
	cfg := energyConfig(false)
	cfg.Telemetry = telemetry.New()
	sys := core.NewSystem(cfg)
	sys.SubmitAll(specs)
	res := sys.Run()
	return &TelemetryRun{
		Sink:        cfg.Telemetry,
		Result:      res,
		TotalEvents: sys.Ctl.TotalEvents(),
	}
}

// FormatTelemetry renders the run's headline counters: what the
// scheduler did, what it cost, and how big the emitted artifacts are.
func FormatTelemetry(r *TelemetryRun) string {
	reg := r.Sink.Reg
	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	var b strings.Builder
	b.WriteString("Telemetry: instrumented realistic workload (flexible, energy, idle sleep)\n")
	fmt.Fprintf(&b, "jobs %d  makespan %s  energy %.1f kJ\n",
		r.Result.Jobs, secondsCell(r.Result.Makespan), r.Result.EnergyJ/1e3)
	fmt.Fprintf(&b, "sched passes %d  main starts %d  backfill starts %d (scanned %d, skipped %d)\n",
		counter("sched_passes_total"), counter("sched_main_starts_total"),
		counter("sched_backfill_starts_total"), counter("sched_backfill_scanned_total"),
		counter("sched_backfill_skipped_total"))
	fmt.Fprintf(&b, "placement cache %d hits / %d misses\n",
		counter("sched_pick_cache_hits_total"), counter("sched_pick_cache_misses_total"))
	fmt.Fprintf(&b, "dmr checks %d (expand %d, shrink %d, no-action %d)\n",
		counter("dmr_checks_total"), counter("dmr_expand_total"),
		counter("dmr_shrink_total"), counter("dmr_noaction_total"))
	fmt.Fprintf(&b, "node sleeps %d  wakes %d\n",
		counter("node_sleep_total"), counter("node_wake_total"))
	if wait := reg.LookupHistogram("job_wait_seconds"); wait != nil {
		fmt.Fprintf(&b, "job waits: n=%d mean=%.1f s\n", wait.Count(), histMean(wait))
	}
	fmt.Fprintf(&b, "controller events %d  trace events %d\n",
		r.TotalEvents, r.Sink.Trace.Len())
	return b.String()
}

// histMean is the histogram's mean observation (0 when empty).
func histMean(h *telemetry.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count())
}
