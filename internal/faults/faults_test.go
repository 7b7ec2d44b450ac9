package faults

import (
	"testing"

	"repro/internal/sim"
)

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if !(Config{MTBF: sim.Second}).Enabled() {
		t.Fatal("MTBF config reports disabled")
	}
	if !(Config{BootFailP: 0.1}).Enabled() {
		t.Fatal("boot-failure config reports disabled")
	}
}

func TestNewValidatesAndNormalizes(t *testing.T) {
	for _, bad := range []Config{{MTBF: -sim.Second}, {BootFailP: -0.1}, {BootFailP: 1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
	in := New(Config{MTBF: 1000 * sim.Second})
	if in.cfg.Shape != 1 || in.cfg.MTTR != 3600*sim.Second {
		t.Fatalf("defaults not applied: %+v", in.cfg)
	}
	if in.cfg.Horizon != 30*24*3600*sim.Second {
		t.Fatalf("horizon default %v", in.cfg.Horizon)
	}
}

// The inverse-transform scaling must deliver the configured MTBF as the
// distribution mean for any shape (λ is corrected by Γ(1+1/k)).
func TestNextCrashMeanMatchesMTBF(t *testing.T) {
	const mtbf = 10000 * sim.Second
	for _, shape := range []float64{1, 0.7, 2} {
		in := New(Config{MTBF: mtbf, Shape: shape, Horizon: 1 << 60, Seed: 42})
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			d, ok := in.NextCrash(0, "")
			if !ok {
				t.Fatalf("shape %v: draw %d not ok under a huge horizon", shape, i)
			}
			if d < sim.Second {
				t.Fatalf("shape %v: TTF %v under the 1 s floor", shape, d)
			}
			sum += float64(d)
		}
		mean := sum / n
		if mean < 0.95*float64(mtbf) || mean > 1.05*float64(mtbf) {
			t.Fatalf("shape %v: sample mean %.0f s, want ≈%v", shape, mean/float64(sim.Second), mtbf)
		}
	}
}

func TestNextCrashDisabledAndClassOverride(t *testing.T) {
	in := New(Config{MTBF: 1000 * sim.Second, ClassMTBF: map[string]sim.Time{
		"flaky": 10 * sim.Second,
		"solid": 0,
	}, Horizon: 1 << 60, Seed: 7})
	if _, ok := in.NextCrash(0, "solid"); ok {
		t.Fatal("a 0-MTBF class still crashes")
	}
	// The flaky class must draw visibly shorter lives than the default.
	var flaky, def float64
	for i := 0; i < 2000; i++ {
		d, _ := in.NextCrash(0, "flaky")
		flaky += float64(d)
		d, _ = in.NextCrash(0, "")
		def += float64(d)
	}
	if flaky*10 > def {
		t.Fatalf("flaky mean %.0f not ≪ default mean %.0f", flaky/2000, def/2000)
	}
}

// A draw past the horizon is reported not-ok but still consumed, so the
// stream position depends only on the number of consultations.
func TestHorizonConsumesDraws(t *testing.T) {
	mk := func(h sim.Time) *Injector {
		return New(Config{MTBF: 1000 * sim.Second, Horizon: h, Seed: 99})
	}
	tiny, big := mk(2*sim.Second), mk(1<<60)
	for i := 0; i < 100; i++ {
		dt, okt := tiny.NextCrash(0, "")
		db, _ := big.NextCrash(0, "")
		if dt != db {
			t.Fatalf("draw %d diverged: %v vs %v", i, dt, db)
		}
		if okt && dt > 2*sim.Second {
			t.Fatalf("draw %d ok past the horizon", i)
		}
	}
}

func TestNextCrashFloor(t *testing.T) {
	in := New(Config{MTBF: sim.Microsecond, Horizon: 1 << 60, Seed: 1}) // 1 µs MTBF: every draw floors
	for i := 0; i < 100; i++ {
		if d, _ := in.NextCrash(0, ""); d != sim.Second {
			t.Fatalf("TTF %v, want the 1 s floor", d)
		}
	}
}

func TestRepairTime(t *testing.T) {
	const mttr = 600 * sim.Second
	in := New(Config{MTBF: sim.Second, MTTR: mttr, Seed: 5})
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		d := in.RepairTime()
		if d < sim.Second {
			t.Fatalf("repair %v under the 1 s floor", d)
		}
		sum += float64(d)
	}
	mean := sum / n
	if mean < 0.95*float64(mttr) || mean > 1.05*float64(mttr) {
		t.Fatalf("repair mean %.0f s, want ≈%v", mean/float64(sim.Second), mttr)
	}
}

func TestBootFails(t *testing.T) {
	off := New(Config{MTBF: sim.Second, Seed: 3})
	for i := 0; i < 10; i++ {
		if off.BootFails() {
			t.Fatal("BootFailP=0 produced a failure")
		}
	}
	in := New(Config{BootFailP: 0.25, Seed: 3})
	fails := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.BootFails() {
			fails++
		}
	}
	if rate := float64(fails) / n; rate < 0.23 || rate > 0.27 {
		t.Fatalf("boot-failure rate %.3f, want ≈0.25", rate)
	}
}

// The backoff doubles per strike from RetryBase, capped at RetryCap, and
// carries no jitter.
func TestBootRetryBackoff(t *testing.T) {
	in := New(Config{BootFailP: 0.5, RetryBase: 60 * sim.Second, RetryCap: 300 * sim.Second})
	want := []sim.Time{60, 60, 120, 240, 300, 300}
	for strike, w := range want {
		if got := in.BootRetry(strike); got != w*sim.Second {
			t.Fatalf("BootRetry(%d) = %v, want %v", strike, got, w*sim.Second)
		}
	}
}

// Same seed, same schedule — and the draws come from the injector's own
// salted stream, independent of the workload generator's.
func TestDeterminism(t *testing.T) {
	mk := func() *Injector {
		return New(Config{MTBF: 5000 * sim.Second, MTTR: 100 * sim.Second, BootFailP: 0.2, Horizon: 1 << 60, Seed: 11})
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		da, _ := a.NextCrash(0, "")
		db, _ := b.NextCrash(0, "")
		if da != db {
			t.Fatalf("crash draw %d diverged", i)
		}
		if a.RepairTime() != b.RepairTime() {
			t.Fatalf("repair draw %d diverged", i)
		}
		if a.BootFails() != b.BootFails() {
			t.Fatalf("boot draw %d diverged", i)
		}
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}
