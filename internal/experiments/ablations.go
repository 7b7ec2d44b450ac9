package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Name   string
	Result *metrics.WorkloadResult
}

// Moldable runs the paper's future-work extension (§X): flexible jobs
// additionally submitted with a node *range* instead of a fixed size, so
// the scheduler molds the start size. Compared against plain flexible
// and fixed runs of the same workload.
func Moldable(jobs int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Realistic(jobs, seed))
	fixed := realisticConfig()
	flex := realisticConfig()
	mold := realisticConfig()
	mold.MoldableSubmissions = true
	return []AblationRow{
		{Name: "fixed", Result: core.RunWorkload(fixed, workload.SetFlexible(specs, false))},
		{Name: "flexible", Result: core.RunWorkload(flex, workload.SetFlexible(specs, true))},
		{Name: "flexible+moldable", Result: core.RunWorkload(mold, workload.SetFlexible(specs, true))},
	}
}

// ResizeFactor sweeps the reconfiguration factor (the paper fixes 2 for
// every job, §VII-C) over a preliminary workload.
func ResizeFactor(jobs int, factors []int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Preliminary(jobs, 1, seed))
	var out []AblationRow
	for _, f := range factors {
		cfg := preliminaryConfig()
		cfg.FactorOverride = f
		out = append(out, AblationRow{
			Name:   fmt.Sprintf("factor %d", f),
			Result: core.RunWorkload(cfg, specs),
		})
	}
	return out
}

// PolicyModes compares full Algorithm 1 against its preferred-only
// ablation (wide optimization disabled). FS jobs give no preferred
// size, so wide optimization is the only branch that can act on them —
// the ablation shows the whole preliminary-study gain comes from it.
func PolicyModes(jobs int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Preliminary(jobs, 1, seed))
	full := preliminaryConfig()
	pref := preliminaryConfig()
	pref.Policy = core.PreferredOnly
	return []AblationRow{
		{Name: "algorithm1-full", Result: core.RunWorkload(full, specs)},
		{Name: "preferred-only", Result: core.RunWorkload(pref, specs)},
	}
}

// CRTransfer compares the DMR in-memory redistribution against
// checkpoint/restart-style reconfiguration at workload scale: the same
// policy and protocols, but resize data goes through the parallel
// filesystem. This extends Figure 1's per-resize comparison to the
// throughput setting of §IX.
func CRTransfer(jobs int, seed int64) []AblationRow {
	specs := workload.Generate(workload.Realistic(jobs, seed))
	dmr := realisticConfig()
	cr := realisticConfig()
	cr.CRTransfer = true
	return []AblationRow{
		{Name: "fixed", Result: core.RunWorkload(realisticConfig(), workload.SetFlexible(specs, false))},
		{Name: "flexible-dmr", Result: core.RunWorkload(dmr, specs)},
		{Name: "flexible-cr", Result: core.RunWorkload(cr, specs)},
	}
}

// FormatAblation renders an ablation sweep.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %12s %12s %10s %10s\n", "config", "makespan(s)", "avgwait(s)", "util%", "resizes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12.0f %12.0f %10.2f %10d\n",
			r.Name, r.Result.Makespan.Seconds(), r.Result.AvgWait.Seconds(), r.Result.UtilRate, r.Result.Resizes)
	}
	return b.String()
}
