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
//   - Instrumented code holds a nil-able *Sink and guards every hook,
//     so the disabled path costs a nil check and allocates nothing.
package telemetry

// Sink bundles the two exporters instrumented code hangs off.
type Sink struct {
	// Trace records sim-time spans, instants and counter series.
	Trace *Tracer
	// Reg is the deterministic metrics registry (virtual-time data only).
	Reg *Registry
}

// New builds a sink with both exporters enabled.
func New() *Sink {
	return &Sink{Trace: NewTracer(), Reg: NewRegistry()}
}
