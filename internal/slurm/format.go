package slurm

import (
	"fmt"
	"strings"
)

// FormatQueue renders the controller state in squeue style: running
// jobs first, then the pending queue in priority order.
func (c *Controller) FormatQueue() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %-16s %-10s %6s %10s %10s\n", "JOBID", "NAME", "STATE", "NODES", "SUBMIT(s)", "START(s)")
	for _, j := range c.RunningJobs() {
		fmt.Fprintf(&b, "%6d %-16s %-10s %6d %10.1f %10.1f\n",
			j.ID, j.Name, j.State, len(j.alloc), j.SubmitTime.Seconds(), j.StartTime.Seconds())
	}
	for _, j := range c.PendingJobs() {
		reason := ""
		if !c.eligible(j) {
			reason = " (dependency)"
		}
		fmt.Fprintf(&b, "%6d %-16s %-10s %6d %10.1f %10s%s\n",
			j.ID, j.Name, j.State, j.ReqNodes, j.SubmitTime.Seconds(), "-", reason)
	}
	return b.String()
}

// FormatNodes renders node availability in sinfo style.
func (c *Controller) FormatNodes() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes: %d total, %d allocated, %d free\n",
		c.TotalNodes(), c.AllocatedNodes(), c.FreeNodes())
	owners := make(map[int]string)
	for _, j := range c.running {
		for _, n := range j.alloc {
			owners[n.Index] = j.Name
		}
	}
	var busy []string
	for _, n := range c.cluster.Nodes {
		if owner, ok := owners[n.Index]; ok {
			busy = append(busy, fmt.Sprintf("%s=%s", n.Name, owner))
		}
	}
	if len(busy) > 0 {
		fmt.Fprintf(&b, "allocated: %s\n", strings.Join(busy, " "))
	}
	return b.String()
}
