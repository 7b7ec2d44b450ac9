package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// traceDoc mirrors the Chrome trace-event JSON object form for
// round-trip validation.
type traceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   *int64         `json:"ts"`
		Dur  *int64         `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestTracerJSON(t *testing.T) {
	tr := NewTracer()
	tr.MetaProcess(1, "scheduler")
	tr.MetaThread(2, 7, "job CG-001")
	tr.Span(2, 7, "job", "run w=4", 10*sim.Second, 25*sim.Second,
		Arg{Key: "nodes", Val: 4}, Arg{Key: "flex", Val: true})
	tr.Instant(1, 1, "sched", "pass", 30*sim.Second, Arg{Key: "starts", Val: uint64(2)})
	tr.Counter(1, "queue", 30*sim.Second, Arg{Key: "pending", Val: 5})
	if tr.Len() != 5 {
		t.Fatalf("len %d", tr.Len())
	}

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	span := doc.TraceEvents[2]
	if span.Ph != "X" || span.Name != "run w=4" || span.Cat != "job" {
		t.Fatalf("span %+v", span)
	}
	// sim.Time is microseconds, exactly the trace format's unit.
	if *span.Ts != int64(10*sim.Second) || *span.Dur != int64(15*sim.Second) {
		t.Fatalf("span ts=%d dur=%d", *span.Ts, *span.Dur)
	}
	if span.Args["nodes"].(float64) != 4 || span.Args["flex"].(bool) != true {
		t.Fatalf("span args %v", span.Args)
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Args["name"] != "scheduler" {
		t.Fatalf("meta %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[3].Ph != "i" || doc.TraceEvents[4].Ph != "C" {
		t.Fatalf("phases %+v %+v", doc.TraceEvents[3], doc.TraceEvents[4])
	}

	// Identical emission sequences export identical bytes.
	tr2 := NewTracer()
	tr2.MetaProcess(1, "scheduler")
	tr2.MetaThread(2, 7, "job CG-001")
	tr2.Span(2, 7, "job", "run w=4", 10*sim.Second, 25*sim.Second,
		Arg{Key: "nodes", Val: 4}, Arg{Key: "flex", Val: true})
	tr2.Instant(1, 1, "sched", "pass", 30*sim.Second, Arg{Key: "starts", Val: uint64(2)})
	tr2.Counter(1, "queue", 30*sim.Second, Arg{Key: "pending", Val: 5})
	var b2 bytes.Buffer
	if err := tr2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("identical tracers exported different bytes")
	}
}

func TestTracerEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := NewTracer().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
}

func TestSinkNew(t *testing.T) {
	s := New()
	if s.Trace == nil || s.Reg == nil {
		t.Fatalf("sink %+v", s)
	}
	// A fresh sink's registry is empty: nothing registers instruments
	// behind the caller's back.
	var b bytes.Buffer
	if err := s.Reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("fresh Reg exports data:\n%s", b.String())
	}
}

// TestTracerArgTypes: every supported arg value type serializes, and an
// unsupported type surfaces as an error rather than corrupt JSON.
func TestTracerArgTypes(t *testing.T) {
	tr := NewTracer()
	tr.Instant(1, 1, "c", "args", sim.Second,
		Arg{Key: "s", Val: "text"}, Arg{Key: "b", Val: false},
		Arg{Key: "i", Val: int(-3)}, Arg{Key: "i64", Val: int64(-9)},
		Arg{Key: "u64", Val: uint64(7)}, Arg{Key: "f", Val: 2.5},
		Arg{Key: "t", Val: 3 * sim.Second})
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("arg-typed trace does not parse: %v\n%s", err, b.String())
	}
	args := doc.TraceEvents[0].Args
	if args["s"] != "text" || args["b"] != false || args["i"].(float64) != -3 ||
		args["i64"].(float64) != -9 || args["u64"].(float64) != 7 ||
		args["f"].(float64) != 2.5 || args["t"].(float64) != float64(3*sim.Second) {
		t.Fatalf("args round-trip: %v", args)
	}

	bad := NewTracer()
	bad.Instant(1, 1, "c", "bad", sim.Second, Arg{Key: "x", Val: struct{}{}})
	if err := bad.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("unsupported arg type did not error")
	}
}
