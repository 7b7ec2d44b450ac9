package sim

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
	"weak"
)

// TestKillAfterScheduledWake: a Kill that lands after Fire or Push has
// scheduled the victim's wake unwinds it at that wake's dispatch, which
// is its only resume. Its waiter is never handed to a later wait.
func TestKillAfterScheduledWake(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(k *Kernel) (wait func(*Proc), wake func())
	}{
		{"signal", func(k *Kernel) (func(*Proc), func()) {
			s := NewSignal(k)
			return s.Wait, s.Fire
		}},
		{"queue", func(k *Kernel) (func(*Proc), func()) {
			q := NewQueue(k)
			return func(p *Proc) { q.Pop(p) }, func() { q.Push("lost") }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			var trace []string
			k.Trace = func(at Time, name string) { trace = append(trace, fmt.Sprintf("%v %s", at, name)) }
			wait, wake := tc.setup(k)
			reached, cleaned := false, false
			victim := k.Spawn("victim", func(p *Proc) {
				p.OnExit(func() { cleaned = true })
				wait(p)
				reached = true
			})
			var retired *waiter
			k.At(Second, func() {
				retired = victim.waiting
				wake()
				victim.Kill()
			})
			later := NewSignal(k)
			var doneAt Time
			other := k.Spawn("other", func(p *Proc) {
				p.Sleep(2 * Second)
				later.Wait(p)
				doneAt = p.Now()
			})
			reused := false
			k.At(3*Second, func() { reused = other.waiting == retired })
			k.At(4*Second, later.Fire)
			k.Run()
			if reached || !cleaned || !victim.Done() {
				t.Fatalf("victim reached=%v cleaned=%v done=%v; want it unwound", reached, cleaned, victim.Done())
			}
			if retired == nil || reused {
				t.Fatalf("the killed victim's waiter (%p) served a later wait", retired)
			}
			if doneAt != 4*Second {
				t.Fatalf("other resumed at %v, want 4s", doneAt)
			}
			want := "[0.000000s victim 0.000000s other 1.000000s victim 2.000000s other 4.000000s other]"
			if got := fmt.Sprint(trace); got != want {
				t.Fatalf("resume trace %s, want %s", got, want)
			}
		})
	}
}

// TestKilledPopperKeepsItsWaiter: a process killed while parked in Pop
// stays listed on its queue, which skips it lazily. Its waiter must not
// serve another wait, or the next Push to that queue would wake the
// wrong process with the wrong item.
func TestKilledPopperKeepsItsWaiter(t *testing.T) {
	k := NewKernel()
	q, other := NewQueue(k), NewQueue(k)
	victim := k.Spawn("victim", func(p *Proc) { q.Pop(p) })
	var got any
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(2 * Second)
		got = other.Pop(p)
		at = p.Now()
	})
	k.At(Second, victim.Kill)
	k.At(3*Second, func() { q.Push("stale") })
	k.At(4*Second, func() { other.Push("fresh") })
	k.Run()
	if got != "fresh" || at != 4*Second {
		t.Fatalf("consumer got %v at %v, want fresh at 4s", got, at)
	}
	if q.Len() != 1 {
		t.Fatalf("the push to the killed popper's queue was consumed: Len %d, want 1", q.Len())
	}
}

// TestWaitTimeoutWakesOnce: a WaitTimeout resumes exactly once, whether
// its Fire and its timeout land at one instant (in either order) or the
// Fire comes first. The timeout event still holds the waiter after an
// early Fire, so a later wait must not reuse it.
func TestWaitTimeoutWakesOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fireAt    Time
		fireFirst bool // Fire's event is scheduled before the timeout's
		want      bool
	}{
		{"fire then timeout at one instant", 5 * Second, true, true},
		{"timeout then fire at one instant", 5 * Second, false, false},
		{"fire before the deadline", 2 * Second, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			s, next := NewSignal(k), NewSignal(k)
			var resumes []Time
			k.Trace = func(at Time, _ string) { resumes = append(resumes, at) }
			if tc.fireFirst {
				k.At(tc.fireAt, s.Fire)
			} else {
				k.At(Second, func() { k.At(tc.fireAt, s.Fire) })
			}
			var fired bool
			var doneAt Time
			k.Spawn("w", func(p *Proc) {
				fired = s.WaitTimeout(p, 5*Second)
				next.Wait(p)
				doneAt = p.Now()
			})
			k.At(8*Second, next.Fire)
			k.Run()
			if fired != tc.want {
				t.Fatalf("WaitTimeout = %v, want %v", fired, tc.want)
			}
			if doneAt != 8*Second {
				t.Fatalf("the next wait returned at %v, want 8s", doneAt)
			}
			if want := fmt.Sprint([]Time{0, tc.fireAt, 8 * Second}); fmt.Sprint(resumes) != want {
				t.Fatalf("resumes %v, want %s", resumes, want)
			}
		})
	}
}

// TestFinishedProcReleasesBody: once a process exits, its *Proc no longer
// keeps the body's captured state alive (jobs hold their processes long
// after they finish), and neither does the worker that ran it.
func TestFinishedProcReleasesBody(t *testing.T) {
	k := NewKernel()
	p, body := spawnHolding(k)
	k.Run()
	runtime.GC()
	if !p.Done() {
		t.Fatal("holder did not finish")
	}
	if body.Value() != nil {
		t.Fatal("a finished process keeps its body's captured state alive")
	}
	runtime.KeepAlive(p)
}

// spawnHolding spawns a process whose body captures a fresh allocation
// and returns a weak pointer to that allocation.
func spawnHolding(k *Kernel) (*Proc, weak.Pointer[[256]byte]) {
	buf := new([256]byte)
	p := k.Spawn("holder", func(p *Proc) {
		p.Sleep(Second)
		buf[0]++
	})
	return p, weak.Make(buf)
}

// TestIdleWorkerPinsNoKernel: a worker parked for reuse keeps no
// reference to the process it last ran, so a finished kernel is
// collectable.
func TestIdleWorkerPinsNoKernel(t *testing.T) {
	k := runAndDrop()
	runtime.GC()
	if k.Value() != nil {
		t.Fatal("an idle worker keeps a finished kernel alive")
	}
}

// runAndDrop runs a one-process kernel to completion and returns a weak
// pointer to it.
func runAndDrop() weak.Pointer[Kernel] {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(Second) })
	k.Run()
	return weak.Make(k)
}

// TestDispatchAllocs pins the dispatch path's steady-state allocations: a
// resume goes through the closure built at Spawn with its wake parked on
// the Proc, and Wait, Pop and Acquire reuse pooled waiters. What is left
// is the waiter-list append of a Pop or an Acquire.
func TestDispatchAllocs(t *testing.T) {
	const cycles = 200
	for _, tc := range []struct {
		name   string
		period Time // virtual time of one cycle
		max    float64
		spawn  func(k *Kernel)
	}{
		{"Proc.Sleep", Second, 0, func(k *Kernel) {
			k.Spawn("sleeper", func(p *Proc) {
				for range cycles {
					p.Sleep(Second)
				}
			})
		}},
		{"Queue Push to Pop", Second, 1, func(k *Kernel) {
			q := NewQueue(k)
			k.Spawn("consumer", func(p *Proc) {
				for range cycles {
					q.Pop(p)
				}
			})
			k.Spawn("producer", func(p *Proc) {
				for range cycles {
					p.Sleep(Second)
					q.Push(q) // a pointer: no boxing allocation
				}
			})
		}},
		{"contended Resource", 2 * Second, 2, func(k *Kernel) {
			r := NewResource(k, 1)
			for _, name := range []string{"a", "b"} {
				k.Spawn(name, func(p *Proc) {
					for range cycles {
						r.Acquire(p)
						p.Sleep(Second)
						r.Release()
					}
				})
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			tc.spawn(k)
			k.RunUntil(10 * tc.period) // spawn and grow the calendar
			got := testing.AllocsPerRun(50, func() { k.RunUntil(k.Now() + tc.period) })
			k.Run()
			if got > tc.max {
				t.Fatalf("%v allocations per cycle, want at most %v", got, tc.max)
			}
		})
	}
}

// TestEventSize: every job arrival goes through Kernel.At, so the
// calendar event's size is paid on the submit path. A variant that
// carried the process and its wake in the event (56 bytes) slowed
// fs_sparse's submit phase by about 0.8 ms (fast-mode setup_s from
// 2.95–3.10 to 3.73–4.15 ms); dispatches ride on a per-process closure
// instead.
func TestEventSize(t *testing.T) {
	const want = 16 + unsafe.Sizeof(uintptr(0)) // t, seq, fn: 24 bytes on 64-bit hosts
	if got := unsafe.Sizeof(event{}); got != want {
		t.Fatalf("event is %d bytes, want %d", got, want)
	}
}
