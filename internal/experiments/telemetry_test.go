package experiments

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// telemetryExports renders the run's three artifacts.
func telemetryExports(t *testing.T, r *TelemetryRun) (prom, csv, trace []byte) {
	t.Helper()
	var p, c, tr bytes.Buffer
	if err := r.Sink.Reg.WriteProm(&p); err != nil {
		t.Fatal(err)
	}
	if err := r.Sink.Reg.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := r.Sink.Trace.WriteJSON(&tr); err != nil {
		t.Fatal(err)
	}
	return p.Bytes(), c.Bytes(), tr.Bytes()
}

// TestTelemetryGolden pins the instrumented 50-job realistic run: two
// identical runs must export byte-identical artifacts, and those bytes
// are pinned against golden copies. This is the enabled-path analogue
// of TestSchedulerDeterminismGolden — any scheduler, energy or
// telemetry change that shifts a single counter, span or sample shows
// up as a golden diff.
func TestTelemetryGolden(t *testing.T) {
	r1 := Telemetry(50, DefaultSeed)
	r2 := Telemetry(50, DefaultSeed)
	prom1, csv1, trace1 := telemetryExports(t, r1)
	prom2, csv2, trace2 := telemetryExports(t, r2)
	if !bytes.Equal(prom1, prom2) || !bytes.Equal(csv1, csv2) {
		t.Fatal("registry exports differ across identical runs")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("trace exports differ across identical runs")
	}
	if r1.TotalEvents != r2.TotalEvents {
		t.Fatalf("event counts differ: %d vs %d", r1.TotalEvents, r2.TotalEvents)
	}

	checkGolden(t, "telemetry_50j_metrics.prom", prom1)
	checkGolden(t, "telemetry_50j_trace.json", trace1)
	checkGolden(t, "telemetry_50j_table.txt", []byte(FormatTelemetry(r1)))
}

// parityExports runs one instrumented system over 40 seeded flexible
// realistic jobs and returns its Prometheus snapshot and its trace as
// sorted lines (trailing commas stripped, so the order-free comparison
// does not depend on which event the exporter wrote last).
func parityExports(t *testing.T, cfg core.Config, params workload.Params) (prom, trace []byte) {
	t.Helper()
	cfg.Telemetry = telemetry.New()
	sys := core.NewSystem(cfg)
	sys.SubmitAll(workload.SetFlexible(workload.Generate(params), true))
	sys.Run()
	var p, tr bytes.Buffer
	if err := cfg.Telemetry.Reg.WriteProm(&p); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Telemetry.Trace.WriteJSON(&tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(tr.String(), "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimSuffix(l, ",")
	}
	sort.Strings(lines)
	return p.Bytes(), []byte(strings.Join(lines, "\n") + "\n")
}

// TestTelemetryFeatureParityGolden pins the telemetry of the feature
// paths the 50-job golden never runs: (A) a power cap with thermal
// throttling and the sleep ladder; (B) a diurnal stream with class
// demands on a 33 + 32 Xeon/efficiency fleet under the elastic fleet,
// node crashes, boot failures and live migration. The snapshots are
// pinned byte for byte; the traces as sorted lines, because a release
// under a power cap may order same-instant spans either way.
func TestTelemetryFeatureParityGolden(t *testing.T) {
	capped := core.DefaultConfig()
	capped.PowerCapW = 15000
	capped.Thermal = true
	capped.SleepLadder = slurm.DefaultSleepLadder()
	prom, trace := parityExports(t, capped, workload.Realistic(40, 1))
	checkGolden(t, "telemetry_parity_cap_metrics.prom", prom)
	checkGolden(t, "telemetry_parity_cap_trace_sorted.txt", trace)

	fleet := core.DefaultConfig()
	pc := mixedPlatform(33)
	fleet.Platform = &pc
	fleet.SleepLadder = slurm.DefaultSleepLadder()
	fleet.Elastic = &slurm.ElasticConfig{Min: 8}
	fleet.Faults = &faults.Config{MTBF: 20000 * sim.Second, BootFailP: 0.5, Horizon: 30000 * sim.Second, Seed: 1}
	fleet.Migration = &slurm.MigrationConfig{}
	params := workload.Realistic(40, 1)
	diurnal, err := workload.NamedArrival("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	params.Arrival = diurnal
	params.ClassMix = workload.DefaultClassMix()
	prom, trace = parityExports(t, fleet, params)
	checkGolden(t, "telemetry_parity_fleet_metrics.prom", prom)
	checkGolden(t, "telemetry_parity_fleet_trace_sorted.txt", trace)
}
