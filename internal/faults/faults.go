// Package faults is the deterministic fault injector: it turns an
// MTBF/Weibull node-failure model, a mean-time-to-repair, and an
// elastic boot-failure probability into the concrete delays and
// verdicts the scheduler's recovery machinery consumes.
//
// The injector draws from its own seeded RNG stream, minted from the
// run seed XOR a faults-specific salt (the seeded-stream discipline of
// workload.NewStream, constructed locally to keep this a leaf package).
// Independence is the point: the workload generator's streams must stay
// byte-identical whether or not faults are enabled, and the injector's
// schedule must survive workload retunes unchanged. A disabled injector
// is simply never constructed, so the zero-draw property of every other
// stream holds trivially.
//
// The injector is policy-free by design: it decides *when* hardware
// misbehaves, never what the scheduler does about it. The controller
// owns the recovery paths (requeue, shrink-to-survive, boot retry) and
// consults the injector through the slurm.FaultModel interface, which
// keeps the package dependency-light and the scheduler testable with a
// stub model.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// seedSalt decorrelates the injector's stream from the workload
// generator's (which uses the raw seed) and the class-demand stream.
const seedSalt = 0x6661756c7473 // "faults"

// Config parameterizes the injector.
type Config struct {
	// MTBF is the per-node mean time between failures. 0 disables
	// crash injection entirely (boot failures may still be enabled).
	MTBF sim.Time
	// Shape is the Weibull shape parameter of the time-to-failure
	// distribution; <= 0 or 1 gives the memoryless exponential, > 1
	// wear-out (hazard grows with uptime), < 1 infant mortality.
	Shape float64
	// ClassMTBF overrides MTBF per machine class (keyed by class name).
	// Classes absent from the map use MTBF.
	ClassMTBF map[string]sim.Time
	// MTTR is the mean time to repair a crashed node; repairs are
	// exponentially distributed. 0 defaults to one hour.
	MTTR sim.Time
	// Horizon bounds crash scheduling: no crash is armed past this
	// virtual time, so the event calendar drains once the workload
	// does. 0 defaults to 30 simulated days.
	Horizon sim.Time
	// BootFailP is the probability that an elastic provision boot
	// fails to bring the node up (per attempt). 0 disables.
	BootFailP float64
	// RetryBase is the initial boot-retry backoff; doubles per strike
	// up to RetryCap. Defaults: 60 s base, 15 min cap.
	RetryBase sim.Time
	// RetryCap caps the exponential boot-retry backoff.
	RetryCap sim.Time
	// Seed seeds the injector's RNG stream (XORed with the package
	// salt, so passing the workload seed is safe and conventional).
	Seed int64
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool { return c.MTBF > 0 || c.BootFailP > 0 }

// Injector implements slurm.FaultModel over a seeded stream.
type Injector struct {
	cfg Config
	rng *rand.Rand
}

// Validate reports whether the model's rates are in range.
func (c Config) Validate() error {
	if c.MTBF < 0 {
		return fmt.Errorf("faults: MTBF %v is negative (0 disables crashes)", c.MTBF)
	}
	if c.BootFailP < 0 || c.BootFailP > 1 {
		return fmt.Errorf("faults: BootFailP %g is not a probability", c.BootFailP)
	}
	return nil
}

// New builds an injector (panicking if cfg does not validate). The
// configuration is normalized here once so every consumer sees the same
// defaults.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Shape <= 0 {
		cfg.Shape = 1
	}
	if cfg.MTTR <= 0 {
		cfg.MTTR = 3600 * sim.Second
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 30 * 24 * 3600 * sim.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 60 * sim.Second
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 900 * sim.Second
	}
	// The same seeded-stream shape workload.NewStream mints, constructed
	// locally: faults must stay a leaf package (the scheduler's tests
	// import it, and workload transitively imports the scheduler).
	//simcheck:allow rngstream leaf-package twin of workload.NewStream, salted off the same run seed
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ seedSalt))}
}

// mtbfFor resolves the per-class override.
func (in *Injector) mtbfFor(class string) sim.Time {
	if m, ok := in.cfg.ClassMTBF[class]; ok {
		return m
	}
	return in.cfg.MTBF
}

// NextCrash draws the time-to-failure of one node life of the given
// machine class, relative to now. ok is false when crash injection is
// off for the class or the crash would land past the horizon — the
// caller stops the node's crash chain there. The draw is consumed
// either way, so the stream position depends only on how many lives
// were asked about, not on where the horizon sits.
func (in *Injector) NextCrash(now sim.Time, class string) (delay sim.Time, ok bool) {
	mtbf := in.mtbfFor(class)
	if mtbf <= 0 {
		return 0, false
	}
	// Weibull via inverse transform: scale λ chosen so the mean is the
	// configured MTBF for any shape (mean = λ·Γ(1+1/k)).
	u := in.rng.Float64()
	lambda := float64(mtbf) / math.Gamma(1+1/in.cfg.Shape)
	ttf := sim.Time(lambda * math.Pow(-math.Log(1-u), 1/in.cfg.Shape))
	if ttf < sim.Second {
		ttf = sim.Second // a zero-delay crash would fire inside the arming event
	}
	if now+ttf > in.cfg.Horizon {
		return ttf, false
	}
	return ttf, true
}

// RepairTime draws the repair duration of one crash (exponential MTTR,
// floored at one second so a repair never completes inside the crash
// event itself).
func (in *Injector) RepairTime() sim.Time {
	d := sim.Time(in.rng.ExpFloat64() * float64(in.cfg.MTTR))
	if d < sim.Second {
		d = sim.Second
	}
	return d
}

// BootFails draws the verdict for one elastic provision boot attempt.
func (in *Injector) BootFails() bool {
	if in.cfg.BootFailP <= 0 {
		return false
	}
	return in.rng.Float64() < in.cfg.BootFailP
}

// BootRetry returns the capped exponential backoff before boot attempt
// strike+1 (strike counts completed failures, so the first retry waits
// RetryBase). Deterministic: backoff carries no jitter, the crash and
// repair draws provide all the variety the model needs.
func (in *Injector) BootRetry(strike int) sim.Time {
	d := in.cfg.RetryBase
	for i := 1; i < strike && d < in.cfg.RetryCap; i++ {
		d *= 2
	}
	if d > in.cfg.RetryCap {
		d = in.cfg.RetryCap
	}
	return d
}

func (in *Injector) String() string {
	return fmt.Sprintf("faults{mtbf=%v shape=%.2f mttr=%v bootfail=%.3f}",
		in.cfg.MTBF, in.cfg.Shape, in.cfg.MTTR, in.cfg.BootFailP)
}
