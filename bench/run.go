package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// profileHz is the CPU-profile sampling rate traced runs ask for, five
// times the runtime default. The kernel's timer tick may deliver fewer
// samples (about 250 a second at CONFIG_HZ=250), so layer CPU time is
// derived from sample shares of the measured run time, never from a
// sample count times the period.
const profileHz = 500

// Options selects what one execution records besides its timings.
type Options struct {
	Seed int64
	// Scale divides the workload's job count (1 is full size).
	Scale int
	// Setups and SetupSeconds are the least number of fresh
	// constructions timed and the least host time they take together;
	// the last construction runs. One construction takes milliseconds,
	// so a single timing, or a few back to back, would be noise.
	Setups       int
	SetupSeconds float64
	// Traced attaches the per-layer counters: controller event kinds,
	// sample subscribers, the Kernel.Trace resume hook, job launches and
	// host timing of the controller-only workload's calls.
	Traced bool
	// Profile, when non-nil, receives a CPU profile of the run phase.
	Profile io.Writer
}

// Result is one execution's measurements.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"` // the seed the inputs were generated from
	Jobs     int    `json:"jobs"`
	// Failed counts jobs not completed exactly once; every job when a
	// run-wide check failed or the run panicked.
	Failed int    `json:"failed"`
	Error  string `json:"error,omitempty"`
	// Digest is the sha256 of the accounting CSV, the kernel event count
	// and the makespan: equal digests mean equal simulated behaviour.
	Digest string `json:"digest"`
	// Set-up phases in host seconds, medians over the timed constructions.
	GenerateS float64 `json:"generate_s"`
	BuildS    float64 `json:"build_s"`
	SubmitS   float64 `json:"submit_s"`
	SetupS    float64 `json:"setup_s"`
	// RunS is host seconds from Run through result collection and export.
	RunS      float64 `json:"run_s"`
	SimEvents uint64  `json:"sim_events"`
	// Go runtime work over the run phase.
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCCPUShare float64 `json:"gc_cpu_share"`
	// Counts holds the traced per-layer counters by metric name.
	Counts map[string]float64 `json:"counts,omitempty"`
	Spans  []Span             `json:"spans,omitempty"`
}

// Completed is the number of jobs that completed exactly once.
func (r Result) Completed() int { return r.Jobs - r.Failed }

// JobsPerS is completed jobs per host second of the run phase.
func (r Result) JobsPerS() float64 {
	if r.RunS <= 0 {
		return 0
	}
	return float64(r.Completed()) / r.RunS
}

// Execute builds the workload at least Setups times and for at least
// SetupSeconds, runs the last construction and checks its outputs. A panic inside the simulation is reported as
// a failed run, not propagated.
func Execute(w Workload, opt Options) (res Result) {
	res.Workload, res.Seed = w.Name, opt.Seed
	jobs := w.Jobs / max(opt.Scale, 1)
	var sp spanLog
	root := sp.begin("run", -1)
	defer func() {
		if p := recover(); p != nil {
			res.Error = fmt.Sprint("panic: ", p)
			res.Jobs, res.Failed = jobs, jobs
		}
		sp.end(root)
		res.Spans = sp.spans
	}()

	var r *rig
	var gen, bld, sub, tot []float64
	var c *counters
	for i := 0; i < max(opt.Setups, 1) || sum(tot) < opt.SetupSeconds; i++ {
		runtime.GC() // each construction starts from a clean heap, as a fresh process would
		s := sp.begin("generate", root)
		specs := workload.Generate(w.Params(jobs, opt.Seed))
		g := sp.end(s)
		s = sp.begin("build", root)
		r = w.build()
		b := sp.end(s)
		if opt.Traced {
			c = attachCounters(r)
		}
		s = sp.begin("submit", root)
		r.submit(specs, opt.Traced)
		u := sp.end(s)
		gen, bld, sub, tot = append(gen, g), append(bld, b), append(sub, u), append(tot, g+b+u)
	}
	res.Jobs = len(r.jobs)
	res.GenerateS, res.BuildS, res.SubmitS, res.SetupS = Median(gen), Median(bld), Median(sub), Median(tot)
	if c != nil {
		c.hook(r)
	}

	runtime.GC()
	before := readGo()
	if opt.Profile != nil {
		// Raising the rate before StartCPUProfile makes the runtime keep
		// it (and print a warning that the default was not applied).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(opt.Profile); err != nil {
			panic(err)
		}
	}
	s := sp.begin("run", root)
	r.k.Run()
	run := sp.end(s)
	s = sp.begin("collect", root)
	makespan := r.collect()
	collect := sp.end(s)
	s = sp.begin("export", root)
	exported := r.export()
	export := sp.end(s)
	if opt.Profile != nil {
		pprof.StopCPUProfile()
	}
	after := readGo()

	res.RunS = run + collect + export
	res.SimEvents = r.k.Events()
	res.Mallocs = after.mallocs - before.mallocs
	res.AllocBytes = after.allocBytes - before.allocBytes
	res.GCCycles = uint64(after.gcCycles - before.gcCycles)
	if cpu := after.cpuTotal - before.cpuTotal; cpu > 0 {
		res.GCCPUShare = (after.cpuGC - before.cpuGC) / cpu
	}
	res.Failed, res.Digest, res.Error = r.check(makespan)
	if res.Error != "" {
		res.Failed = res.Jobs
	}
	if c != nil {
		res.Counts = c.metrics(r, exported)
	}
	return res
}

// collect gathers the run's results and returns its makespan. For the
// full stack this is core's own result collection, which also checks
// that no process is left blocked after the drain.
func (r *rig) collect() sim.Time {
	if r.sys != nil {
		return r.sys.Run().Makespan
	}
	var makespan sim.Time
	for _, j := range r.jobs {
		if j.State == slurm.StateCompleted && j.EndTime > makespan {
			makespan = j.EndTime
		}
	}
	return makespan
}

// export serializes the telemetry trace and Prometheus snapshot into a
// byte counter and returns the byte count (0 without telemetry).
func (r *rig) export() int64 {
	if r.tel == nil {
		return 0
	}
	var cw countWriter
	if err := r.tel.Trace.WriteJSON(&cw); err != nil {
		panic(err)
	}
	if err := r.tel.Reg.WriteProm(&cw); err != nil {
		panic(err)
	}
	return cw.n
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// check is the correctness oracle. Every submitted job must have exactly
// one COMPLETED accounting record; no process may be live after the
// drain; the per-record energies must sum to the accountant's attributed
// joules, which lie between zero and the cluster total. It returns the
// jobs that failed the per-job check, the run digest, and the first
// run-wide violation.
func (r *rig) check(makespan sim.Time) (failed int, digest, violation string) {
	var csv bytes.Buffer
	if err := r.ctl.WriteAccountingCSV(&csv); err != nil {
		return 0, "", fmt.Sprint("accounting CSV: ", err)
	}
	completed := make(map[int]int, len(r.jobs))
	var energyJ float64
	for _, rec := range r.ctl.Accounting() {
		if rec.State == slurm.StateCompleted {
			completed[rec.ID]++
		}
		energyJ += rec.EnergyJ
	}
	for _, j := range r.jobs {
		if completed[j.ID] != 1 || j.State != slurm.StateCompleted {
			failed++
		}
	}
	h := sha256.New()
	h.Write(csv.Bytes())
	fmt.Fprintf(h, "events=%d makespan=%d\n", r.k.Events(), makespan)
	digest = hex.EncodeToString(h.Sum(nil))

	if live := r.k.LiveProcs(); len(live) > 0 {
		return failed, digest, fmt.Sprintf("%d processes live after the drain (first %q)", len(live), live[0])
	}
	if r.acct != nil {
		att, total := r.acct.AttributedJoules(), r.acct.TotalJoules()
		if math.Abs(energyJ-att) > 1e-9*math.Abs(att) {
			return failed, digest, fmt.Sprintf("per-job energy sums to %.6f J, accountant attributes %.6f J", energyJ, att)
		}
		if att < 0 || att > total {
			return failed, digest, fmt.Sprintf("attributed energy %.6f J outside [0, %.6f J]", att, total)
		}
	}
	return failed, digest, ""
}

// counters are the traced run's per-layer event counts.
type counters struct {
	kinds                  map[slurm.EventKind]uint64
	resumes, launches      uint64
	samples, power, therml uint64
}

// attachCounters subscribes to the controller and accountant streams of
// a freshly built rig, before any job is submitted.
func attachCounters(r *rig) *counters {
	c := &counters{kinds: make(map[slurm.EventKind]uint64)}
	r.ctl.SubscribeEvents(func(ev slurm.Event) { c.kinds[ev.Kind]++ })
	r.ctl.SubscribeSamples(func(sim.Time, int, int, int, int) { c.samples++ })
	if r.acct != nil {
		r.acct.SubscribePowerSamples(func(sim.Time, float64) { c.power++ })
		r.acct.SubscribeThermalSamples(func(sim.Time, float64, int) { c.therml++ })
	}
	return c
}

// hook counts process resumes and job launches of the submitted rig.
func (c *counters) hook(r *rig) {
	r.k.Trace = func(sim.Time, string) { c.resumes++ }
	for _, j := range r.jobs {
		launch := j.Launch
		j.Launch = func(j *slurm.Job, nodes []*platform.Node) {
			c.launches++
			launch(j, nodes)
		}
	}
}

// metrics names the counts as per-layer metrics.
func (c *counters) metrics(r *rig, exported int64) map[string]float64 {
	k := func(kinds ...slurm.EventKind) float64 {
		var n uint64
		for _, kd := range kinds {
			n += c.kinds[kd]
		}
		return float64(n)
	}
	wakes := 0
	if r.acct != nil {
		wakes = r.acct.Wakes()
	}
	return map[string]float64{
		"sim.events":             float64(r.k.Events()),
		"sim.resumes":            float64(c.resumes),
		"slurm.ctl_events":       float64(r.ctl.TotalEvents()),
		"slurm.starts":           k(slurm.EvStart),
		"slurm.resizes":          k(slurm.EvExpand, slurm.EvShrink),
		"slurm.resizer_cancels":  k(slurm.EvCancel),
		"slurm.boosts":           k(slurm.EvBoost),
		"slurm.migrations":       k(slurm.EvMigrate),
		"slurm.timed_calls":      float64(len(r.submitNs) + len(r.completeNs)),
		"slurm.submit_ns_p50":    quantile(r.submitNs, 0.5),
		"slurm.submit_ns_p999":   quantile(r.submitNs, 0.999),
		"slurm.complete_ns_p50":  quantile(r.completeNs, 0.5),
		"slurm.complete_ns_p999": quantile(r.completeNs, 0.999),
		"nanos.launches":         float64(c.launches),
		"energy.pstate_moves":    k(slurm.EvThrottle, slurm.EvRestore, slurm.EvThermalThrottle, slurm.EvThermalRestore),
		"energy.sleeps":          k(slurm.EvSleep),
		"energy.power_samples":   float64(c.power),
		"energy.thermal_samples": float64(c.therml),
		"metrics.samples":        float64(c.samples),
		"energy.wakes":           float64(wakes),
		"telemetry.trace_bytes":  float64(exported),
	}
}

// goStats is a snapshot of the Go runtime's cumulative work.
type goStats struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	cpuGC, cpuTotal     float64
}

func readGo() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return goStats{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC,
		cpuGC: s[0].Value.Float64(), cpuTotal: s[1].Value.Float64(),
	}
}

// hostNs times one call in host nanoseconds.
func hostNs(fn func()) int64 {
	t := time.Now()
	fn()
	return time.Since(t).Nanoseconds()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none.
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// quantile returns the nearest-rank q-quantile of xs, 0 for none.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}
