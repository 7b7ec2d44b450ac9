package experiments

import "testing"

// TestScaleDeterministic: the scale study reports only simulated
// quantities, so two runs of one seed render byte-identical tables, and
// every regime drains the whole stream.
func TestScaleDeterministic(t *testing.T) {
	dims := []ScaleDim{{Nodes: 64, Jobs: 100}}
	a := Scale(dims, DefaultSeed)
	b := Scale(dims, DefaultSeed)
	if fa, fb := FormatScale(a), FormatScale(b); fa != fb {
		t.Fatalf("scale study not deterministic:\n%s\nvs\n%s", fa, fb)
	}
	if len(a) != 1 {
		t.Fatalf("%d rows, want 1", len(a))
	}
	for _, run := range a[0].Runs() {
		if run.Res.Jobs != 100 {
			t.Errorf("%s: %d jobs completed, want 100", run.Regime, run.Res.Jobs)
		}
		if run.KernelEvents == 0 {
			t.Errorf("%s: no kernel events", run.Regime)
		}
	}
}
