// Package telemetry is the simulator's observability layer: a sim-time
// structured tracer (Chrome trace-event JSON, loadable in Perfetto) and
// a deterministic metrics registry (counters/gauges/histograms with
// stable snapshot ordering, exported as Prometheus text or CSV).
//
// The contract with the deterministic simulation:
//
//   - Everything recorded in Trace and Reg derives from virtual time
//     and simulation state only. Two runs of the same seeded workload
//     export byte-identical traces and snapshots.
//   - Nothing here reads the host clock. Host time is measured outside
//     the simulator: dmrsim -pprof/-rtrace and the dmrbench harness
//     (bench/).
//   - The simulator holds no telemetry hooks. A sink observes a
//     controller as one more subscriber to its event and sample streams
//     (Sink.Attach), so a run without a sink pays nothing for one.
package telemetry

// Sink bundles the two exporters and the controller subscription that
// feeds them.
type Sink struct {
	// Trace records sim-time spans, instants and counter series.
	Trace *Tracer
	// Reg is the deterministic metrics registry (virtual-time data only).
	Reg *Registry

	ctl *ctlObserver // set by Attach
}

// New builds a sink with both exporters enabled.
func New() *Sink {
	return &Sink{Trace: NewTracer(), Reg: NewRegistry()}
}
