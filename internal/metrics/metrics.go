// Package metrics collects and aggregates the measurements the paper
// reports: workload makespan, average job waiting / execution /
// completion times, the average resource-utilization rate (Table II),
// and the allocation/throughput evolution traces behind Figures 4-6
// and 12.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/slurm"
)

// Sample is one point of the cluster-state evolution.
type Sample struct {
	T         sim.Time
	Alloc     int
	Running   int
	Completed int
	Pending   int
}

// Trace records cluster-state evolution over a workload execution.
type Trace struct {
	TotalNodes int
	Samples    []Sample
}

// Recorder hooks a controller and accumulates a trace, plus the power
// trace when an energy accountant is attached (AttachPower) and the
// thermal trace when the accountant carries a thermal envelope
// (AttachThermal).
type Recorder struct {
	Trace      Trace
	PowerTrace *PowerTrace
	TempTrace  *TempTrace
}

// Attach registers the recorder on the controller. Subscription-based:
// attaching never displaces other sample observers (the telemetry sink,
// another recorder).
func (r *Recorder) Attach(c *slurm.Controller) {
	r.Trace.TotalNodes = c.TotalNodes()
	c.SubscribeSamples(func(t sim.Time, alloc, running, completed, pending int) {
		r.Trace.Samples = append(r.Trace.Samples, Sample{T: t, Alloc: alloc, Running: running, Completed: completed, Pending: pending})
	})
}

// NodeSecondsAllocated integrates allocated nodes over [0, end].
func (tr *Trace) NodeSecondsAllocated(end sim.Time) float64 {
	total := 0.0
	prevT := sim.Time(0)
	prevAlloc := 0
	for _, s := range tr.Samples {
		if s.T > end {
			break
		}
		total += float64(prevAlloc) * (s.T - prevT).Seconds()
		prevT, prevAlloc = s.T, s.Alloc
	}
	total += float64(prevAlloc) * (end - prevT).Seconds()
	return total
}

// UtilizationRate is the paper's "average resource utilization rate":
// allocated node-seconds over total node-seconds until end.
func (tr *Trace) UtilizationRate(end sim.Time) float64 {
	if end <= 0 || tr.TotalNodes == 0 {
		return 0
	}
	return tr.NodeSecondsAllocated(end) / (float64(tr.TotalNodes) * end.Seconds()) * 100
}

// At returns the last sample with T <= t.
func (tr *Trace) At(t sim.Time) Sample {
	var out Sample
	for _, s := range tr.Samples {
		if s.T > t {
			break
		}
		out = s
	}
	return out
}

// WorkloadResult aggregates one workload execution.
type WorkloadResult struct {
	Jobs     int
	Makespan sim.Time
	AvgWait  sim.Time
	// P95Wait is the 95th-percentile job queue wait (nearest-rank over
	// the submitted jobs). Averages hide exactly the tail an elastic
	// fleet trades energy against, so the capacity experiments report
	// both.
	P95Wait       sim.Time
	AvgExec       sim.Time
	AvgCompletion sim.Time
	UtilRate      float64 // percent
	Resizes       int
	Trace         *Trace

	// Energy measures, filled by core.System.Run: the cluster energy
	// integral over [0, makespan] and the mean draw.
	EnergyJ   float64
	AvgPowerW float64
	Power     *PowerTrace
	// Temp is the thermal evolution, filled when the run's node profiles
	// carried a thermal envelope.
	Temp *TempTrace
}

// Collect computes the result over the given jobs and trace.
func Collect(jobs []*slurm.Job, tr *Trace) *WorkloadResult {
	res := &WorkloadResult{Jobs: len(jobs), Trace: tr}
	if len(jobs) == 0 {
		return res
	}
	var wait, exec, completion sim.Time
	waits := make([]sim.Time, 0, len(jobs))
	for _, j := range jobs {
		if j.State != slurm.StateCompleted {
			panic(fmt.Sprintf("metrics: job %d not completed (%v)", j.ID, j.State))
		}
		wait += j.WaitTime()
		waits = append(waits, j.WaitTime())
		exec += j.ExecTime()
		completion += j.CompletionTime()
		res.Resizes += j.ResizeCount
		if j.EndTime > res.Makespan {
			res.Makespan = j.EndTime
		}
	}
	sort.Slice(waits, func(i, k int) bool { return waits[i] < waits[k] })
	res.P95Wait = waits[(len(waits)*95+99)/100-1]
	n := sim.Time(len(jobs))
	res.AvgWait = wait / n
	res.AvgExec = exec / n
	res.AvgCompletion = completion / n
	if tr != nil {
		res.UtilRate = tr.UtilizationRate(res.Makespan)
	}
	return res
}

// GainPct is the paper's gain metric: the percent reduction of flexible
// relative to fixed.
func GainPct(fixed, flexible float64) float64 {
	if fixed == 0 {
		return 0
	}
	return (fixed - flexible) / fixed * 100
}

// AsciiChart renders a time series as a compact ASCII area chart with
// the given number of columns; used by the evolution-figure examples.
func AsciiChart(title string, tr *Trace, value func(Sample) int, maxVal int, cols int, end sim.Time) string {
	if cols < 10 {
		cols = 10
	}
	const rows = 8
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for c := 0; c < cols; c++ {
		t := sim.Time(float64(end) * (float64(c) + 0.5) / float64(cols))
		v := value(tr.At(t))
		h := 0
		if maxVal > 0 {
			h = v * rows / maxVal
			if h > rows {
				h = rows
			}
		}
		for r := 0; r < h; r++ {
			grid[rows-1-r][c] = '#'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (0..%v s, max %d)\n", title, int(end.Seconds()), maxVal)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	return b.String()
}
