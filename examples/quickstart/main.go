// Quickstart: submit one malleable Flexible-Sleep job to a small
// cluster together with a rigid competitor, and watch the DMR framework
// expand and shrink it — the paper's core mechanism in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Nodes = 16
	sys := core.NewSystem(cfg)

	// The controller keeps no log: print its event stream as it runs.
	fmt.Println("controller event log:")
	sys.Ctl.SubscribeEvents(func(e slurm.Event) {
		if !e.Kind.Probe() {
			fmt.Printf("  t=%8.1fs  %-7s job %d  nodes=%-2d %s\n",
				e.T.Seconds(), e.Kind, e.JobID, e.Nodes, e.Info)
		}
	})

	// A flexible job submitted on 4 nodes: alone on the cluster it will
	// expand to its maximum; when the rigid job below arrives it will
	// be shrunk so the rigid job can start sooner.
	sys.Submit(workload.Spec{
		Index: 0, Class: 0 /* FS */, Nodes: 4,
		Runtime: 1000 * sim.Second, Arrival: 0, Flexible: true,
	})
	// A rigid 12-node job arriving two minutes in.
	sys.Submit(workload.Spec{
		Index: 1, Class: 0, Nodes: 12,
		Runtime: 100 * sim.Second, Arrival: 120 * sim.Second, Flexible: false,
	})

	res := sys.Run()
	fmt.Printf("\nworkload done at t=%.1fs; %d reconfigurations performed\n",
		res.Makespan.Seconds(), res.Resizes)
	for _, j := range sys.Jobs() {
		fmt.Printf("  %-8s wait %6.1fs  exec %6.1fs  completion %6.1fs\n",
			j.Name, j.WaitTime().Seconds(), j.ExecTime().Seconds(), j.CompletionTime().Seconds())
	}
}
