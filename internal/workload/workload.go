// Package workload generates job streams with the statistical model of
// Feitelson [6] that the paper uses for its workloads (§VII-C): job sizes
// from a discrete distribution emphasizing small jobs and powers of two,
// runtimes from a size-correlated hyperexponential distribution, Poisson
// inter-arrival times, and geometric repeated runs. Generation is fully
// deterministic for a given seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/apps"
	"repro/internal/energy"
	"repro/internal/sim"
)

// Spec describes one job submission.
type Spec struct {
	Index    int
	Class    apps.Class
	Nodes    int      // requested (submitted) node count
	Runtime  sim.Time // expected runtime at the submitted size
	Arrival  sim.Time // absolute submission time
	Flexible bool     // participates in DMR reconfiguration

	// Machine-class demands on heterogeneous fleets (ClassMix): a hard
	// constraint, a soft preference, or both empty (indifferent).
	ReqClass  string
	PrefClass string
}

// ClassMix shapes per-job machine-class demands for heterogeneous
// fleets: a realistic workload is a blend of class-pinned jobs (codes
// needing a specific ISA or accelerator), class-preferring jobs
// (faster-is-nicer but anything runs), and indifferent jobs. Demands
// draw from an RNG stream independent of the base generator, so any
// mix — including the zero value, which generates no demands — leaves
// sizes, runtimes and arrivals byte-identical to earlier seeds.
type ClassMix struct {
	Pinned    float64 // probability a job hard-requires its drawn class
	Preferred float64 // probability it soft-prefers the class instead
	FastBias  float64 // probability the drawn class is FastClass
	FastClass string  // reference-speed class name
	SlowClass string  // efficiency class name
}

func (m ClassMix) enabled() bool { return m.Pinned > 0 || m.Preferred > 0 }

// DefaultClassMix returns the mixed-fleet demand blend used by the
// mixed-fleet experiments: most jobs indifferent or merely preferring,
// a small pinned core, biased toward the reference Xeon class.
func DefaultClassMix() ClassMix {
	return ClassMix{
		Pinned:    0.15,
		Preferred: 0.45,
		FastBias:  0.7,
		FastClass: energy.DefaultProfile().Class,
		SlowClass: energy.EfficiencyProfile().Class,
	}
}

// ArrivalPattern modulates the Poisson arrival rate over time, turning
// the flat stream into the diurnal or bursty shapes an elastic fleet is
// sized against. The zero value is disabled and leaves the generated
// stream byte-identical to earlier seeds: modulation rescales the same
// exponential draw, consuming no extra RNG values.
type ArrivalPattern struct {
	// Period is the cycle length (0 disables modulation).
	Period sim.Time
	// Trough is the rate multiplier at the quietest point of the cycle,
	// relative to the peak rate 1/MeanArrival. Clamped to [0.01, 1]: a
	// zero trough would stall the stream forever.
	Trough float64
	// Duty selects the waveform. 0 (the default) is a raised cosine —
	// the smooth day/night swing. In (0, 1] it is a square wave: the
	// rate holds at peak for Duty of each cycle and at Trough for the
	// rest — the bursty shape (synchronized submission storms).
	Duty float64
}

func (a ArrivalPattern) enabled() bool { return a.Period > 0 }

// rateAt returns the rate multiplier at absolute time t.
func (a ArrivalPattern) rateAt(t sim.Time) float64 {
	trough := a.Trough
	if trough < 0.01 {
		trough = 0.01
	}
	if trough > 1 {
		trough = 1
	}
	phase := float64(t%a.Period) / float64(a.Period)
	if a.Duty > 0 {
		if phase < a.Duty {
			return 1
		}
		return trough
	}
	return trough + (1-trough)*(0.5-0.5*math.Cos(2*math.Pi*phase))
}

// Diurnal is a smooth day/night arrival swing: each cycle opens in the
// overnight lull (rate trough×peak at t=0), builds to the midday peak
// half a period in, and falls back.
func Diurnal(period sim.Time, trough float64) ArrivalPattern {
	return ArrivalPattern{Period: period, Trough: trough}
}

// Bursty is a submission-storm pattern: every period opens with a burst
// at the peak rate lasting duty of the cycle, then the stream idles at
// trough×peak.
func Bursty(period sim.Time, duty, trough float64) ArrivalPattern {
	return ArrivalPattern{Period: period, Trough: trough, Duty: duty}
}

// ArrivalNames lists the shapes NamedArrival accepts — the valid values
// of the CLIs' -arrival flag.
var ArrivalNames = []string{"constant", "diurnal", "bursty"}

// NamedArrival maps an -arrival flag value to its arrival shape:
// "constant" (or empty) is the unmodulated Poisson stream, "diurnal" a
// 24-hour day/night swing bottoming at 1% of the peak rate, "bursty"
// six-hourly submission storms over a 1.5% trough. Unknown names return
// an error listing the valid shapes — they must not reach the generator.
func NamedArrival(pattern string) (ArrivalPattern, error) {
	switch pattern {
	case "", "constant":
		return ArrivalPattern{}, nil
	case "diurnal":
		return Diurnal(24*3600*sim.Second, 0.01), nil
	case "bursty":
		return Bursty(6*3600*sim.Second, 0.06, 0.015), nil
	}
	return ArrivalPattern{}, fmt.Errorf("unknown arrival pattern %q (want %s)",
		pattern, strings.Join(ArrivalNames, ", "))
}

// Params tunes the generator.
type Params struct {
	Jobs        int
	MaxNodes    int      // job-size cap ("job size" parameter)
	MeanArrival sim.Time // Poisson inter-arrival mean ("arrival")
	// Arrival modulates the Poisson rate over time (zero: flat stream,
	// byte-identical to earlier seeds).
	Arrival     ArrivalPattern
	Iterations  int      // app iterations, bounds the per-step runtime
	MaxStepTime sim.Time // cap on runtime/iterations (§VIII-A: 60 s)
	MeanRuntime sim.Time // base of the hyperexponential runtime
	RepeatProb  float64  // geometric repeated-run probability
	FlexRatio   float64  // probability that a job is flexible
	Classes     []apps.Class
	ClassMix    ClassMix // machine-class demand blend (zero: no demands)
	Seed        int64
}

// Preliminary returns the §VIII testbed parameters: FS jobs of up to 20
// nodes, 25 steps of at most 60 s, 10 s mean arrival.
func Preliminary(jobs int, flexRatio float64, seed int64) Params {
	return Params{
		Jobs:        jobs,
		MaxNodes:    20,
		MeanArrival: 10 * sim.Second,
		Iterations:  25,
		MaxStepTime: 60 * sim.Second,
		MeanRuntime: 500 * sim.Second,
		RepeatProb:  0.25,
		FlexRatio:   flexRatio,
		Classes:     []apps.Class{apps.ClassFS},
		Seed:        seed,
	}
}

// Realistic returns the §IX testbed parameters: CG, Jacobi and N-body in
// equal shares, each submitted at its Table I maximum, with Feitelson
// inter-arrivals.
func Realistic(jobs int, seed int64) Params {
	return Params{
		Jobs:        jobs,
		MeanArrival: 60 * sim.Second,
		RepeatProb:  0,
		FlexRatio:   1,
		Classes:     []apps.Class{apps.ClassCG, apps.ClassJacobi, apps.ClassNBody},
		Seed:        seed,
	}
}

// sampleSize draws a job size: log-uniform over [1, max] with a strong
// attraction to powers of two and a bias toward small jobs, following
// the shape of Feitelson's discrete size distribution.
func sampleSize(rng *rand.Rand, max int) int {
	if max <= 1 {
		return 1
	}
	if rng.Float64() < 0.25 {
		return 1 // serial jobs are common in the logs the model fits
	}
	u := rng.Float64() * math.Log2(float64(max))
	n := int(math.Round(math.Pow(2, u)))
	if rng.Float64() < 0.75 {
		// Snap to the nearest power of two.
		k := math.Round(math.Log2(float64(n)))
		n = int(math.Pow(2, k))
	}
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// sampleRuntime draws a runtime from a two-stage hyperexponential whose
// long-tail probability grows with the job size (the model's
// size-runtime correlation), capped so one step never exceeds
// MaxStepTime.
func sampleRuntime(rng *rand.Rand, p Params, nodes int) sim.Time {
	pLong := 0.2
	if p.MaxNodes > 1 {
		pLong += 0.3 * math.Log2(float64(nodes)) / math.Log2(float64(p.MaxNodes))
	}
	mean := float64(p.MeanRuntime)
	if rng.Float64() < pLong {
		mean *= 3
	} else {
		mean *= 0.6
	}
	r := sim.Time(rng.ExpFloat64() * mean)
	minRuntime := sim.Time(p.Iterations) * sim.Second // at least 1 s/step
	maxRuntime := sim.Time(p.Iterations) * p.MaxStepTime
	if r < minRuntime {
		r = minRuntime
	}
	if maxRuntime > 0 && r > maxRuntime {
		r = maxRuntime
	}
	return r
}

// Generate produces the deterministic job stream for p.
func Generate(p Params) []Spec {
	rng := rand.New(rand.NewSource(p.Seed))
	// Class demands draw from an independent stream: enabling a ClassMix
	// must not perturb sizes, runtimes or arrivals, so the mixed-fleet
	// study compares the same base workload with and without demands.
	classRng := rand.New(rand.NewSource(p.Seed ^ 0x636c6173736d6978)) // "classmix"
	specs := make([]Spec, 0, p.Jobs)
	var at sim.Time
	classIdx := 0
	// step advances the arrival clock by one exponential gap. With a
	// pattern attached the same draw is rescaled by the instantaneous
	// rate (time-rescaled nonhomogeneous Poisson, rate held over the
	// gap); disabled, the expression below is the historical one, bit
	// for bit, and RNG consumption is identical either way.
	step := func() {
		dt := rng.ExpFloat64() * float64(p.MeanArrival)
		if p.Arrival.enabled() {
			dt /= p.Arrival.rateAt(at)
		}
		at += sim.Time(dt)
	}
	for len(specs) < p.Jobs {
		step()
		class := p.Classes[classIdx%len(p.Classes)]
		if len(p.Classes) > 1 {
			class = p.Classes[rng.Intn(len(p.Classes))]
		}
		classIdx++

		var nodes int
		var runtime sim.Time
		if class == apps.ClassFS {
			nodes = sampleSize(rng, p.MaxNodes)
			runtime = sampleRuntime(rng, p, nodes)
		} else {
			// Realistic jobs submit at their Table I maximum (§IX-A)
			// and run for their class's calibrated duration.
			cfg := apps.ForClass(class)
			nodes = cfg.MaxProcs
			runtime = sim.Time(cfg.Iterations) * cfg.Model.StepTime(nodes)
		}
		flexible := rng.Float64() < p.FlexRatio

		var reqClass, prefClass string
		if p.ClassMix.enabled() {
			mc := p.ClassMix.SlowClass
			if classRng.Float64() < p.ClassMix.FastBias {
				mc = p.ClassMix.FastClass
			}
			switch d := classRng.Float64(); {
			case d < p.ClassMix.Pinned:
				reqClass = mc
			case d < p.ClassMix.Pinned+p.ClassMix.Preferred:
				prefClass = mc
			}
		}

		repeats := 1
		for p.RepeatProb > 0 && rng.Float64() < p.RepeatProb && repeats < 5 {
			repeats++
		}
		for rep := 0; rep < repeats && len(specs) < p.Jobs; rep++ {
			if rep > 0 {
				step()
			}
			specs = append(specs, Spec{
				Index:     len(specs),
				Class:     class,
				Nodes:     nodes,
				Runtime:   runtime,
				Arrival:   at,
				Flexible:  flexible,
				ReqClass:  reqClass,
				PrefClass: prefClass,
			})
		}
	}
	return specs
}

// SetFlexible returns a copy of specs with every job's flexibility set
// to flex (used to run the same workload in fixed and flexible modes).
func SetFlexible(specs []Spec, flex bool) []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	for i := range out {
		out[i].Flexible = flex
	}
	return out
}

// StripPreferences returns a copy of specs with soft class preferences
// removed but hard constraints kept — the class-blind baseline of the
// mixed-fleet study. A pinned code cannot run on the wrong hardware
// under any scheduler, so the blind regime still honors ReqClass; what
// it lacks is every placement nicety (affinity ordering, class-pure
// allocation, class-priced resizing).
func StripPreferences(specs []Spec) []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	for i := range out {
		out[i].PrefClass = ""
	}
	return out
}
