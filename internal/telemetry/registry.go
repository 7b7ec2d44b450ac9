package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The metrics registry. Counters, gauges and histograms are registered
// by name (get-or-create) and exported in sorted-name order, so two runs
// that touch the same instruments in any order produce byte-identical
// snapshots. Values observed from simulation state are deterministic by
// construction; host timing never enters a registry.

// Counter is a monotonically increasing count.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a value that can move both ways.
type Gauge struct {
	name string
	v    float64
	max  float64
}

// Set records the current value and tracks the high-water mark.
func (g *Gauge) Set(v float64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Value returns the last set value.
func (g *Gauge) Value() float64 { return g.v }

// Max returns the high-water mark across all Set calls.
func (g *Gauge) Max() float64 { return g.max }

// Histogram counts observations into cumulative ≤-bound buckets (the
// Prometheus convention: an observation lands in the first bucket whose
// upper bound is >= the value, and in every wider bucket at export).
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // one per bound, plus the +Inf overflow bucket
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Bucket returns the cumulative count of observations <= bounds[i], or
// the total count for i == len(bounds) (the +Inf bucket).
func (h *Histogram) Bucket(i int) uint64 {
	cum := uint64(0)
	for k := 0; k <= i && k < len(h.counts); k++ {
		cum += h.counts[k]
	}
	return cum
}

// Registry holds named instruments.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// taken panics when name is already registered under a different kind:
// a silent kind clash would export two metrics under one name.
func (r *Registry) taken(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("telemetry: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("telemetry: %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.taken(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.taken(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending bucket bounds (+Inf is implicit). Re-registering
// with different bounds panics.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("telemetry: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	r.taken(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, bounds: b, counts: make([]uint64, len(b)+1)}
	r.hists[name] = h
	return h
}

// LookupHistogram returns the named histogram without creating it (nil
// when absent) — for readers that do not know the registration bounds.
func (r *Registry) LookupHistogram(name string) *Histogram { return r.hists[name] }

// names returns every registered name, sorted — the stable snapshot
// order of both exporters.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ftoa formats a float the same way on every run ('g', shortest).
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteProm exports the registry in Prometheus text exposition format,
// metrics sorted by name.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, name := range r.names() {
		if c, ok := r.counters[name]; ok {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.v); err != nil {
				return err
			}
			continue
		}
		if g, ok := r.gauges[name]; ok {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n%s_max %s\n",
				name, name, ftoa(g.v), name, ftoa(g.max)); err != nil {
				return err
			}
			continue
		}
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, ftoa(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, h.n, name, ftoa(h.sum), name, h.n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports the registry as CSV rows of (name, kind, field,
// value), metrics sorted by name. Histograms expand to one row per
// bucket plus sum and count.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "name,kind,field,value"); err != nil {
		return err
	}
	for _, name := range r.names() {
		if c, ok := r.counters[name]; ok {
			if _, err := fmt.Fprintf(w, "%s,counter,value,%d\n", name, c.v); err != nil {
				return err
			}
			continue
		}
		if g, ok := r.gauges[name]; ok {
			if _, err := fmt.Fprintf(w, "%s,gauge,value,%s\n%s,gauge,max,%s\n",
				name, ftoa(g.v), name, ftoa(g.max)); err != nil {
				return err
			}
			continue
		}
		h := r.hists[name]
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			if _, err := fmt.Fprintf(w, "%s,histogram,le=%s,%d\n", name, ftoa(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s,histogram,le=+Inf,%d\n%s,histogram,sum,%s\n%s,histogram,count,%d\n",
			name, h.n, name, ftoa(h.sum), name, h.n); err != nil {
			return err
		}
	}
	return nil
}
