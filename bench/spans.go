package bench

import (
	"encoding/json"
	"io"
	"maps"
	"slices"
	"time"
)

// Span is one timed phase of an execution: the root "run" span and its
// generate, build, submit, run, collect and export children. Times are
// host seconds since the execution began.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog records spans in memory; they are written out once, at exit.
type spanLog struct {
	t0    time.Time
	spans []Span
}

func (l *spanLog) begin(name string, parent int) int {
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	l.spans = append(l.spans, Span{ID: len(l.spans), Parent: parent, Name: name, Start: time.Since(l.t0).Seconds()})
	return len(l.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (l *spanLog) end(id int) float64 {
	s := &l.spans[id]
	s.End = time.Since(l.t0).Seconds()
	return s.End - s.Start
}

// WriteChromeTrace writes the spans of several executions as Chrome
// trace-event JSON (loadable in Perfetto). Each execution is one trace
// process keyed by its run id, and every event carries the run id, its
// span id and its parent's.
func WriteChromeTrace(w io.Writer, runs map[int]Result) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := []event{}
	for _, id := range slices.Sorted(maps.Keys(runs)) {
		res := runs[id]
		for _, s := range res.Spans {
			events = append(events, event{
				Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6, Pid: id, Tid: 1,
				Args: map[string]any{"run": id, "workload": res.Workload, "span": s.ID, "parent": s.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
