package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
)

// Metric names one reported number. Bound applies to end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics a user of the simulator sees, measured with
// tracing off. The bounds are wide because the benchmark runs on shared
// machines: interference from other tenants slows whole stretches of
// tens of seconds, so the median of a 20-second run moves by 5–20%
// between runs minutes apart (see README.md).
var EndToEnd = []Metric{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mean_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "jobs_ok_frac", Unit: "frac", Better: "higher", Bound: 0.01},
}

// PerLayer are the per-layer metrics of a traced run.
var PerLayer = func() []Metric {
	count := func(names ...string) []Metric {
		var out []Metric
		for _, n := range names {
			out = append(out, Metric{Name: n, Unit: "count", Better: "lower"})
		}
		return out
	}
	m := []Metric{{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"}}
	m = append(m, count("sim.events", "sim.resumes",
		"slurm.ctl_events", "slurm.starts", "slurm.resizes", "slurm.resizer_cancels", "slurm.boosts", "slurm.migrations")...)
	m = append(m,
		Metric{Name: "slurm.timed_calls", Unit: "count", Better: "higher"},
		Metric{Name: "slurm.submit_ns_p50", Unit: "ns", Better: "lower"},
		Metric{Name: "slurm.submit_ns_p999", Unit: "ns", Better: "lower"},
		Metric{Name: "slurm.complete_ns_p50", Unit: "ns", Better: "lower"},
		Metric{Name: "slurm.complete_ns_p999", Unit: "ns", Better: "lower"})
	m = append(m, count("nanos.launches", "energy.pstate_moves", "energy.sleeps", "energy.wakes",
		"energy.power_samples", "energy.thermal_samples", "metrics.samples")...)
	m = append(m,
		Metric{Name: "telemetry.trace_bytes", Unit: "B", Better: "lower"},
		Metric{Name: "telemetry.overhead_frac", Unit: "frac", Better: "lower"})
	for _, l := range Layers {
		m = append(m, Metric{Name: l + ".cpu_share", Unit: "frac", Better: "lower"})
	}
	return append(m,
		Metric{Name: "go.mallocs_per_job", Unit: "count", Better: "lower"},
		Metric{Name: "go.alloc_bytes_per_job", Unit: "B", Better: "lower"},
		Metric{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		Metric{Name: "go.gc_cpu_share", Unit: "frac", Better: "lower"},
		Metric{Name: "go.runtime_leaf_share", Unit: "frac", Better: "lower"},
		Metric{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
		Metric{Name: "setup.generate_s", Unit: "s", Better: "lower"},
		Metric{Name: "setup.build_s", Unit: "s", Better: "lower"},
		Metric{Name: "setup.submit_s", Unit: "s", Better: "lower"},
		Metric{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
		Metric{Name: "trace.profile_samples", Unit: "count", Better: "higher"})
}()

// Sample is one execution in its own process, as the parent saw it: the
// child's resident set averaged over its lifetime and at its peak.
type Sample struct {
	Result
	MeanRSSMB float64 `json:"mean_rss_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// E2EValue reads one end-to-end metric off one execution.
func E2EValue(name string, s Sample) float64 {
	switch name {
	case "jobs_per_s":
		return s.JobsPerS()
	case "setup_s":
		return s.SetupS
	case "mean_rss_mb":
		return s.MeanRSSMB
	case "jobs_ok_frac":
		return float64(s.Completed()) / float64(max(s.Jobs, 1))
	}
	panic("bench: unknown end-to-end metric " + name)
}

// SummarizeE2E reports the end-to-end metrics of a set of untraced
// executions: medians over executions, with two exceptions. setup_s is
// the lowest of the executions' set-up medians: interference slows a
// whole process's constructions together, by up to 1.7×, so the median
// over four or five processes flips between a fast and a slow mode
// while the fastest process does not. jobs_ok_frac pools every job
// attempted.
func SummarizeE2E(runs []Sample) map[string]float64 {
	var jobs, ok int
	setup := 0.0
	for i, s := range runs {
		jobs += s.Jobs
		ok += s.Completed()
		if i == 0 || s.SetupS < setup {
			setup = s.SetupS
		}
	}
	return map[string]float64{
		"jobs_per_s":   median(runs, func(s Sample) float64 { return s.JobsPerS() }),
		"setup_s":      setup,
		"mean_rss_mb":  median(runs, func(s Sample) float64 { return s.MeanRSSMB }),
		"jobs_ok_frac": ratio(float64(ok), float64(jobs)),
	}
}

// SummarizeLayers reports the per-layer metrics of one workload from its
// untraced executions, its traced ones, the CPU ledger of the traced
// ones, and — for a telemetry workload — its telemetry-off twin.
func SummarizeLayers(untraced, traced, twin []Sample, l *Ledger) map[string]float64 {
	out := map[string]float64{}
	if len(traced) > 0 {
		maps.Copy(out, traced[0].Counts)
	}
	perJob := func(v func(Sample) uint64) func(Sample) float64 {
		return func(s Sample) float64 { return float64(v(s)) / float64(max(s.Jobs, 1)) }
	}
	out["sim.events_per_s"] = median(untraced, func(s Sample) float64 { return ratio(float64(s.SimEvents), s.RunS) })
	out["go.mallocs_per_job"] = median(untraced, perJob(func(s Sample) uint64 { return s.Mallocs }))
	out["go.alloc_bytes_per_job"] = median(untraced, perJob(func(s Sample) uint64 { return s.AllocBytes }))
	out["go.gc_cycles"] = median(untraced, func(s Sample) float64 { return float64(s.GCCycles) })
	out["go.gc_cpu_share"] = median(untraced, func(s Sample) float64 { return s.GCCPUShare })
	out["proc.peak_rss_mb"] = median(untraced, func(s Sample) float64 { return s.PeakRSSMB })
	out["setup.generate_s"] = median(untraced, func(s Sample) float64 { return s.GenerateS })
	out["setup.build_s"] = median(untraced, func(s Sample) float64 { return s.BuildS })
	out["setup.submit_s"] = median(untraced, func(s Sample) float64 { return s.SubmitS })
	out["trace.overhead_frac"] = overhead(untraced, traced)
	out["telemetry.overhead_frac"] = overhead(twin, untraced)
	for _, layer := range Layers {
		out[layer+".cpu_share"] = l.Share(layer)
	}
	out["trace.profile_samples"] = float64(l.Samples)
	out["go.runtime_leaf_share"] = ratio(float64(l.RuntimeLeaf), float64(l.Samples))
	return out
}

// Verify checks a set of executions of one workload against each other:
// every execution must pass the oracle, and executions of the same
// inputs must share one digest and, when traced, every count. It
// returns the jobs attempted, the jobs failed, and a description of
// each problem.
func Verify(runs []Sample) (attempted, failed int, problems []string) {
	digests := map[int64]string{}
	counts := map[int64]map[string]float64{}
	for i, s := range runs {
		attempted += s.Jobs
		bad := s.Failed
		if _, ok := digests[s.Seed]; !ok {
			digests[s.Seed] = s.Digest
		}
		if _, ok := counts[s.Seed]; !ok && s.Counts != nil {
			counts[s.Seed] = s.Counts
		}
		switch {
		case s.Error != "":
			problems = append(problems, fmt.Sprintf("%s run %d: %s", s.Workload, i, s.Error))
		case s.Failed > 0:
			problems = append(problems, fmt.Sprintf("%s run %d: %d of %d jobs not completed exactly once", s.Workload, i, s.Failed, s.Jobs))
		case s.Digest != digests[s.Seed]:
			problems = append(problems, fmt.Sprintf("%s run %d: digest %.12s differs from %.12s of an earlier run of seed %d", s.Workload, i, s.Digest, digests[s.Seed], s.Seed))
			bad = s.Jobs
		case s.Counts != nil && !countsEqual(s.Counts, counts[s.Seed]):
			problems = append(problems, fmt.Sprintf("%s run %d: traced counts differ from an earlier run of seed %d", s.Workload, i, s.Seed))
			bad = s.Jobs
		}
		failed += bad
	}
	return attempted, failed, problems
}

// SetDigest combines the digests of a set's distinct inputs, in seed
// order: two sets of the same commit and seed must print the same one.
func SetDigest(runs []Sample) string {
	bySeed := map[int64]string{}
	for _, s := range runs {
		bySeed[s.Seed] = s.Digest
	}
	h := sha256.New()
	for _, seed := range slices.Sorted(maps.Keys(bySeed)) {
		fmt.Fprintf(h, "%d %s\n", seed, bySeed[seed])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countsEqual compares the deterministic counts, skipping host timings.
func countsEqual(a, b map[string]float64) bool {
	for k, v := range a {
		if !IsHostTiming(k) && b[k] != v {
			return false
		}
	}
	return len(a) == len(b)
}

// IsHostTiming reports whether a per-layer metric is a host-time
// reading rather than a count that must repeat exactly.
func IsHostTiming(name string) bool {
	switch name {
	case "slurm.submit_ns_p50", "slurm.submit_ns_p999", "slurm.complete_ns_p50", "slurm.complete_ns_p999":
		return true
	}
	return false
}

// overhead is the median over pairs of base[i] ÷ with[i] jobs_per_s − 1
// (0 without pairs). A pair runs back to back on one input stream, so
// the stream's own cost and slow drift in the host's speed cancel.
func overhead(base, with []Sample) float64 {
	var xs []float64
	for i := range min(len(base), len(with)) {
		xs = append(xs, ratio(base[i].JobsPerS(), with[i].JobsPerS())-1)
	}
	return Median(xs)
}

// Mean returns the arithmetic mean of xs, 0 for none.
func Mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

func median(runs []Sample, v func(Sample) float64) float64 {
	xs := make([]float64, len(runs))
	for i, s := range runs {
		xs[i] = v(s)
	}
	return Median(xs)
}

// ratio is a/b, or 0 when b is 0 (JSON has no NaN or infinity).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4).
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
