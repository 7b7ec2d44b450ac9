package energy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// testThermal is a hand-sized envelope: ambient 25 °C, conductance
// 4 W/°C, capacity 800 J/°C (τ = 200 s), throttle at 95 °C, restore at
// 70 °C. Paired with DefaultProfile (330 W at P0) the equilibria are
// P0: 107.5, P1: 90, P2: 75, P3: 62.5, idle: 55, shallow sleep: 27.25.
func testThermal() Thermal {
	return Thermal{CapacityJPerC: 800, ConductanceWPerC: 4, AmbientC: 25, ThrottleC: 95, RestoreC: 70}
}

func thermalProfile() Profile {
	return WithThermal(DefaultProfile(), testThermal())
}

func TestThermalValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Thermal)
		ok   bool
	}{
		{"valid", func(*Thermal) {}, true},
		{"disabled zero value", func(th *Thermal) { *th = Thermal{} }, true},
		{"zero capacity", func(th *Thermal) { th.CapacityJPerC = 0 }, false},
		{"negative conductance", func(th *Thermal) { th.ConductanceWPerC = -1 }, false},
		{"no hysteresis gap", func(th *Thermal) { th.RestoreC = th.ThrottleC }, false},
		{"ambient above restore", func(th *Thermal) { th.AmbientC = th.RestoreC }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			th := testThermal()
			tc.mut(&th)
			err := th.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid envelope accepted")
			}
		})
	}
}

func TestThermalTrajectory(t *testing.T) {
	th := testThermal()
	for _, tc := range []struct {
		name   string
		t0, pw float64
		dt     sim.Time
		want   float64
	}{
		// One time constant of P0 heating from ambient covers 1-1/e of
		// the gap to the 107.5 °C equilibrium.
		{"heat one tau", 25, 330, 200 * sim.Second, 107.5 - 82.5/math.E},
		{"steady at equilibrium", 107.5, 330, sim.Hour, 107.5},
		// Cooling at idle decays toward 55 °C.
		{"cool one tau", 95, 120, 200 * sim.Second, 55 + 40/math.E},
		{"zero interval", 60, 330, 0, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := th.TempAfter(tc.t0, tc.pw, tc.dt)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("TempAfter = %.6f, want %.6f", got, tc.want)
			}
		})
	}
}

func TestThermalCrossTime(t *testing.T) {
	th := testThermal()
	for _, tc := range []struct {
		name       string
		t0, pw, at float64
		reach      bool
	}{
		{"heating crosses throttle", 25, 330, 95, true},
		{"cooling crosses restore", 95, 120, 70, true},
		{"equilibrium below target", 25, 260, 95, false}, // P1 settles at 90
		{"already past target", 96, 330, 95, false},
		{"cooling cannot reach a hotter level", 60, 120, 70, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dt, ok := th.CrossTime(tc.t0, tc.pw, tc.at)
			if ok != tc.reach {
				t.Fatalf("reach=%v, want %v", ok, tc.reach)
			}
			if !ok {
				return
			}
			// The closed-form crossing must agree with the trajectory.
			if got := th.TempAfter(tc.t0, tc.pw, dt); math.Abs(got-tc.at) > 1e-6 {
				t.Fatalf("temperature after crossing time = %.6f, want %.6f", got, tc.at)
			}
		})
	}
}

// A node under sustained P0 load crosses the envelope once and settles
// one P-state deeper (P1 equilibrates below the envelope), then clears
// the floor only after idling below the restore threshold.
func TestThermalThrottleAndRestore(t *testing.T) {
	k := sim.NewKernel()
	a := New(k, Uniform(thermalProfile(), 1))
	var steps []struct {
		throttled bool
		floor     int
	}
	a.OnThermal = func(node int, throttled bool, floor int) {
		steps = append(steps, struct {
			throttled bool
			floor     int
		}{throttled, floor})
	}
	a.NodeActive(0, 1, 0)

	// Heat-up to 95 °C from 25 °C at P0: τ·ln(82.5/12.5) ≈ 377.5 s.
	k.RunUntil(370 * sim.Second)
	if f := a.ThermalFloor(0); f != 0 {
		t.Fatalf("throttled at t=370s already (floor %d)", f)
	}
	k.RunUntil(400 * sim.Second)
	if f := a.ThermalFloor(0); f != 1 {
		t.Fatalf("floor %d after crossing, want 1 (P1 settles below the envelope)", f)
	}
	prof := thermalProfile()
	if s := a.Speed(0); s != prof.SpeedAt(1) {
		t.Fatalf("throttled speed %.2f, want P1's %.2f", s, prof.SpeedAt(1))
	}
	// P1 equilibrates at 90 °C — above restore, so the floor holds.
	k.RunUntil(2 * sim.Hour)
	if f := a.ThermalFloor(0); f != 1 {
		t.Fatalf("floor %d under sustained load, want a stable 1", f)
	}

	// Release: cooling from ≈90 °C toward the 55 °C idle equilibrium
	// crosses 70 °C after τ·ln(35/15) ≈ 169 s and clears the floor.
	a.NodeIdle(0)
	k.RunUntil(2*sim.Hour + 160*sim.Second)
	if f := a.ThermalFloor(0); f != 1 {
		t.Fatalf("floor cleared while still above restore (floor %d)", f)
	}
	k.RunUntil(2*sim.Hour + 180*sim.Second)
	if f := a.ThermalFloor(0); f != 0 {
		t.Fatalf("floor %d after cooling below restore, want 0", f)
	}

	if len(steps) != 2 || !steps[0].throttled || steps[0].floor != 1 || steps[1].throttled {
		t.Fatalf("thermal steps %+v, want one throttle to p1 then one restore", steps)
	}
}

// The hysteresis gap: after a restore the node must re-heat from the
// restore threshold to the envelope before throttling again — the floor
// never flaps within a single instant.
func TestThermalHysteresis(t *testing.T) {
	// An envelope whose P1 still equilibrates above ThrottleC (conductance
	// 2.5: P0→157, P1→129, P2→105, P3→85 °C) forces a multi-step
	// throttle; restore at 75 °C sits above the 73 °C idle equilibrium so
	// an idle node can actually clear its floor.
	th := Thermal{CapacityJPerC: 500, ConductanceWPerC: 2.5, AmbientC: 25, ThrottleC: 95, RestoreC: 75}
	k := sim.NewKernel()
	a := New(k, Uniform(WithThermal(DefaultProfile(), th), 1))
	throttles, restores := 0, 0
	var lastT sim.Time = -1
	a.OnThermal = func(node int, throttled bool, floor int) {
		if throttled {
			throttles++
		} else {
			restores++
		}
		if k.Now() == lastT {
			t.Fatalf("two thermal steps at the same instant %v (flapping)", k.Now())
		}
		lastT = k.Now()
	}
	a.NodeActive(0, 1, 0)
	k.RunUntil(sim.Hour)
	// One crossing, one event: the floor lands at P3 (85 °C equilibrium,
	// below the envelope) in a single multi-step throttle.
	if throttles != 1 || restores != 0 {
		t.Fatalf("%d throttles / %d restores under sustained load, want 1/0", throttles, restores)
	}
	if f := a.ThermalFloor(0); f != 3 {
		t.Fatalf("floor %d, want 3 (first state equilibrating below the envelope)", f)
	}
	// Idle cooling crosses restore exactly once.
	a.NodeIdle(0)
	k.Run()
	if restores != 1 {
		t.Fatalf("%d restores after cooling, want 1", restores)
	}
	if a.ThermalFloor(0) != 0 {
		t.Fatalf("floor %d after restore", a.ThermalFloor(0))
	}
}

// Thermal throttled node-seconds are attributed to the owning job and
// surface through JobThermalSec.
func TestThermalSecondsAttributed(t *testing.T) {
	k := sim.NewKernel()
	a := New(k, Uniform(thermalProfile(), 1))
	a.NodeActive(0, 7, 0)
	k.RunUntil(sim.Hour)
	// Crossing at ≈377.5 s; throttled from there to 3600 s.
	want := 3600 - 200*math.Log(82.5/12.5)
	if got := a.JobThermalSec(7); math.Abs(got-want) > 0.5 {
		t.Fatalf("JobThermalSec = %.1f, want ≈%.1f", got, want)
	}
	if got := a.JobThermalSec(99); got != 0 {
		t.Fatalf("unrelated job accrued %.1f thermal seconds", got)
	}
}

// A hot node hands its thermal floor to the next allocation: the
// envelope belongs to the machine, not the job.
func TestThermalFloorSurvivesReallocation(t *testing.T) {
	k := sim.NewKernel()
	a := New(k, Uniform(thermalProfile(), 1))
	a.NodeActive(0, 1, 0)
	k.RunUntil(600 * sim.Second) // throttled at ≈377.5 s
	if a.ThermalFloor(0) != 1 {
		t.Fatalf("floor %d, want 1", a.ThermalFloor(0))
	}
	a.NodeIdle(0)
	k.RunUntil(630 * sim.Second) // not yet cooled below restore
	a.NodeActive(0, 2, 0)
	if a.ThermalFloor(0) != 1 {
		t.Fatal("reallocation reset the thermal floor")
	}
	prof := thermalProfile()
	if s := a.Speed(0); s != prof.SpeedAt(1) {
		t.Fatalf("hot node runs the new job at %.2f, want the floor's %.2f", s, prof.SpeedAt(1))
	}
}

// Without an envelope nothing is scheduled: the calendar stays empty
// after transitions, so the feature is free when disabled.
func TestThermalDisabledSchedulesNothing(t *testing.T) {
	k := sim.NewKernel()
	a := New(k, Uniform(DefaultProfile(), 2))
	a.NodeActive(0, 1, 0)
	a.NodeIdle(0)
	a.NodeSleep(1, 0)
	if !k.Idle() {
		t.Fatal("disabled thermal model scheduled calendar events")
	}
	if a.ThermalEnabled() {
		t.Fatal("ThermalEnabled on a profile without an envelope")
	}
}

// DefaultThermalFor normalizes every class to the same thermal
// geometry: P0 equilibrates 82.5 °C over ambient (past the envelope)
// while P1 settles under it, for the stock profiles.
func TestDefaultThermalForGeometry(t *testing.T) {
	for _, p := range []Profile{DefaultProfile(), EfficiencyProfile()} {
		th := DefaultThermalFor(p)
		if err := th.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Class, err)
		}
		if eq := th.EquilibriumC(p.ActiveW(0)); math.Abs(eq-(th.AmbientC+82.5)) > 1e-9 {
			t.Fatalf("%s: P0 equilibrium %.2f, want ambient+82.5", p.Class, eq)
		}
		if eq := th.EquilibriumC(p.ActiveW(1)); eq >= th.ThrottleC {
			t.Fatalf("%s: P1 equilibrium %.2f does not settle below the %.1f envelope", p.Class, eq, th.ThrottleC)
		}
		if eq := th.EquilibriumC(p.IdleW); eq >= th.RestoreC {
			t.Fatalf("%s: idle equilibrium %.2f cannot clear the floor (restore %.1f)", p.Class, eq, th.RestoreC)
		}
	}
}

// The thermal sample hook observes every DVFS step with the hottest
// node's temperature and the count of binding floors; TempC projects
// without settling the meters.
func TestThermalSampleHook(t *testing.T) {
	k := sim.NewKernel()
	a := New(k, Uniform(thermalProfile(), 2))
	var samples []struct {
		maxC      float64
		throttled int
	}
	a.SubscribeThermalSamples(func(_ sim.Time, maxC float64, throttled int) {
		samples = append(samples, struct {
			maxC      float64
			throttled int
		}{maxC, throttled})
	})
	a.NodeActive(0, 1, 0) // node 1 stays idle
	k.RunUntil(600 * sim.Second)
	if len(samples) != 1 {
		t.Fatalf("%d thermal samples, want 1 (the single throttle)", len(samples))
	}
	if s := samples[0]; s.throttled != 1 || math.Abs(s.maxC-95) > 1e-3 {
		t.Fatalf("sample %+v, want 1 throttled node at ≈95 °C", s)
	}
	// TempC projects both nodes: the loaded one is near its P1
	// equilibrium, the idle one near ambient-side equilibria.
	if hot, cold := a.TempC(0), a.TempC(1); hot <= cold || cold > 60 {
		t.Fatalf("TempC hot=%.1f cold=%.1f", hot, cold)
	}
}

// Clamping: out-of-range P/S-state indices snap to the nearest defined
// state everywhere they can be supplied.
func TestStateIndexClamping(t *testing.T) {
	p := DefaultProfile()
	for _, tc := range []struct {
		name       string
		got, want  float64
		gotT, wanT sim.Time
	}{
		{name: "negative P", got: p.ActiveW(-3), want: p.PStates[0].PowerW},
		{name: "deep P", got: p.ActiveW(99), want: p.PStates[len(p.PStates)-1].PowerW},
		{name: "negative S", got: p.SleepW(-1), want: p.SStates[0].PowerW},
		{name: "deep S", got: p.SleepW(99), want: p.SStates[len(p.SStates)-1].PowerW},
		{name: "deep S wake", gotT: p.WakeLatency(99), wanT: p.SStates[len(p.SStates)-1].WakeLatency},
	} {
		if tc.got != tc.want || tc.gotT != tc.wanT {
			t.Fatalf("%s: got %v/%v want %v/%v", tc.name, tc.got, tc.gotT, tc.want, tc.wanT)
		}
	}
	k := sim.NewKernel()
	a := New(k, Uniform(p, 1))
	a.NodeActive(0, 1, 99)
	if a.PStateOf(0) != len(p.PStates)-1 {
		t.Fatalf("PStateOf %d, want clamp to deepest", a.PStateOf(0))
	}
	if a.Speed(0) != p.PStates[len(p.PStates)-1].Speed {
		t.Fatalf("speed %v at clamped state", a.Speed(0))
	}
}

// NodeSleep steps a sleeping node deeper but never shallower, and the
// wake latency is read from the rung actually occupied.
func TestSleepDeepeningLadderRules(t *testing.T) {
	for _, tc := range []struct {
		name      string
		from, to  int
		wantState int
	}{
		{"idle drops to shallow", -1, 0, 0},
		{"idle drops straight to deep", -1, 1, 1},
		{"shallow deepens", 0, 1, 1},
		{"deep stays on shallow request", 1, 0, 1},
		{"re-entry keeps the rung", 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			a := New(k, Uniform(DefaultProfile(), 1))
			if tc.from >= 0 {
				a.NodeSleep(0, tc.from)
			}
			a.NodeSleep(0, tc.to)
			if a.State(0) != Sleeping {
				t.Fatalf("state %v", a.State(0))
			}
			if got := a.SStateOf(0); got != tc.wantState {
				t.Fatalf("S-state %d, want %d", got, tc.wantState)
			}
			p := DefaultProfile()
			if w := a.WakePreview(0); w != p.WakeLatency(tc.wantState) {
				t.Fatalf("wake preview %v, want the occupied rung's %v", w, p.WakeLatency(tc.wantState))
			}
			if a.NodePowerW(0) != p.SleepW(tc.wantState) {
				t.Fatalf("draw %.1f W, want S%d's %.1f W", a.NodePowerW(0), tc.wantState, p.SleepW(tc.wantState))
			}
		})
	}
}
