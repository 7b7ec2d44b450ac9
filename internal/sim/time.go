// Package sim implements a deterministic process-oriented discrete-event
// simulation kernel.
//
// Simulated processes are coroutines (iter.Pull) that the kernel resumes
// with one switch: exactly one process runs at a time, and control returns
// to the kernel whenever a process blocks (Sleep, Signal.Wait, Queue.Pop,
// Resource.Acquire) or exits. A resume allocates nothing: it is scheduled
// through a closure built once per process, with the wake parked on the
// Proc. Events are ordered by (virtual time, sequence number), so two runs
// of the same program produce identical schedules.
//
// The kernel provides virtual time only; it never consults the wall clock.
package sim

import "fmt"

// Time is a point in virtual time, counted in microseconds from the start
// of the simulation. A Time is also used for durations.
type Time int64

// Time unit constants, analogous to package time.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Milliseconds converts a floating-point number of milliseconds to a Time.
func Milliseconds(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds reports t as an integer count of microseconds — the
// native resolution of Time, and the timestamp unit of the Chrome
// trace-event format the telemetry tracer exports.
func (t Time) Microseconds() int64 { return int64(t) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }
