package slurm

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
)

// JobRecord is one row of the accounting database (the sacct analog).
type JobRecord struct {
	ID            int
	Name          string
	State         JobState
	ReqNodes      int
	SubmitSec     float64
	StartSec      float64
	EndSec        float64
	WaitSec       float64
	ExecSec       float64
	CompletionSec float64
	Resizes       int
	NodeSeconds   float64
	Flexible      bool
	// EnergyJ is the energy attributed to the job: the integral of the
	// draw of every node over the intervals it held that node.
	EnergyJ float64
	// AvgPowerW is EnergyJ over the job's execution time.
	AvgPowerW float64
	// ThrottledSec is how long the power-cap governor held the job's
	// nodes below P0.
	ThrottledSec float64
	// ThermalThrottledSec is the node-seconds the job's allocation spent
	// under a binding thermal P-state floor (the envelope forced a node
	// below the governor's state). Zero without a thermal envelope.
	ThermalThrottledSec float64
	// ClassDemand is the job's machine-class demand: "class" for a hard
	// constraint, "~class" for a soft preference, empty for indifferent.
	ClassDemand string
	// MinClassSpeed is the slowest machine-class P0 speed among the
	// nodes the job ever held (1 when it only ran on reference nodes).
	MinClassSpeed float64
	// Requeues counts rigid fault recoveries (the job was killed back to
	// the queue by a node crash); LostWorkS is the node-set seconds of
	// work failures made it redo. Zero without a fault model.
	Requeues  int
	LostWorkS float64
	// Migrations counts the job's live checkpoint/restart moves, and
	// MigratedS the modeled C/R cost they charged it. Zero without the
	// migration pass.
	Migrations int
	MigratedS  float64
}

// Accounting returns the records of all terminated jobs, ordered by ID.
// Resizer jobs are internal and excluded.
func (c *Controller) Accounting() []JobRecord {
	var out []JobRecord
	for _, j := range c.jobs {
		if j.Resizer || (j.State != StateCompleted && j.State != StateCancelled) {
			continue
		}
		rec := JobRecord{
			ID:            j.ID,
			Name:          j.Name,
			State:         j.State,
			ReqNodes:      j.ReqNodes,
			SubmitSec:     j.SubmitTime.Seconds(),
			EndSec:        j.EndTime.Seconds(),
			Resizes:       j.ResizeCount,
			NodeSeconds:   j.NodeSeconds,
			Flexible:      j.Flexible,
			ThrottledSec:  j.ThrottledSec,
			MinClassSpeed: j.MinClassSpeed(),
			Requeues:      j.Requeues,
			LostWorkS:     j.LostWorkS,
			Migrations:    j.Migrations,
			MigratedS:     j.MigratedS,
			EnergyJ:       c.cfg.Energy.JobJoules(j.ID),
		}
		if j.ReqClass != "" {
			rec.ClassDemand = j.ReqClass
		} else if j.PrefClass != "" {
			rec.ClassDemand = "~" + j.PrefClass
		}
		if j.State == StateCompleted {
			rec.StartSec = j.StartTime.Seconds()
			rec.WaitSec = j.WaitTime().Seconds()
			rec.ExecSec = j.ExecTime().Seconds()
			rec.CompletionSec = j.CompletionTime().Seconds()
		}
		if rec.ExecSec > 0 {
			rec.AvgPowerW = rec.EnergyJ / rec.ExecSec
		}
		rec.ThermalThrottledSec = c.cfg.Energy.JobThermalSec(j.ID)
		out = append(out, rec)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// WriteAccountingCSV dumps the accounting records as CSV. Clusters with
// a thermal envelope gain a trailing thermal_throttled_s column; ones
// with a fault model gain requeues and lost_work_s; ones with the
// migration pass gain migrations and migrated_s (pipelines without the
// feature stay byte-identical).
func (c *Controller) WriteAccountingCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	thermal := c.cfg.Energy.ThermalEnabled()
	faulty := c.cfg.Faults != nil
	migrating := c.cfg.Migration != nil
	header := []string{
		"id", "name", "state", "req_nodes", "submit_s", "start_s", "end_s",
		"wait_s", "exec_s", "completion_s", "resizes", "node_seconds", "flexible",
		"energy_j", "avg_power_w", "throttled_s", "class_demand", "min_class_speed",
	}
	if thermal {
		header = append(header, "thermal_throttled_s")
	}
	if faulty {
		header = append(header, "requeues", "lost_work_s")
	}
	if migrating {
		header = append(header, "migrations", "migrated_s")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range c.Accounting() {
		rec := []string{
			fmt.Sprint(r.ID), r.Name, r.State.String(), fmt.Sprint(r.ReqNodes),
			fmt.Sprintf("%.3f", r.SubmitSec), fmt.Sprintf("%.3f", r.StartSec),
			fmt.Sprintf("%.3f", r.EndSec), fmt.Sprintf("%.3f", r.WaitSec),
			fmt.Sprintf("%.3f", r.ExecSec), fmt.Sprintf("%.3f", r.CompletionSec),
			fmt.Sprint(r.Resizes), fmt.Sprintf("%.1f", r.NodeSeconds), fmt.Sprint(r.Flexible),
			fmt.Sprintf("%.1f", r.EnergyJ), fmt.Sprintf("%.1f", r.AvgPowerW),
			fmt.Sprintf("%.1f", r.ThrottledSec),
			r.ClassDemand, fmt.Sprintf("%.2f", r.MinClassSpeed),
		}
		if thermal {
			rec = append(rec, fmt.Sprintf("%.1f", r.ThermalThrottledSec))
		}
		if faulty {
			rec = append(rec, fmt.Sprint(r.Requeues), fmt.Sprintf("%.1f", r.LostWorkS))
		}
		if migrating {
			rec = append(rec, fmt.Sprint(r.Migrations), fmt.Sprintf("%.1f", r.MigratedS))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
