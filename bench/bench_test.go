package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
)

// testScale shrinks every workload to about a twentieth of its size.
const testScale = 20

// TestWorkloadsRepeat runs every workload twice in-process, traced: the
// oracle must pass and the digests and counts must repeat exactly. The
// telemetry workload must also match its bypass twin, or the overhead
// it reports would compare different work.
func TestWorkloadsRepeat(t *testing.T) {
	digests := map[string]string{}
	for _, w := range Workloads {
		var runs []Sample
		for range 2 {
			res := Execute(w, Options{Seed: 1, Scale: testScale, Setups: 1, Traced: true})
			if res.Error != "" || res.Failed != 0 || res.Jobs == 0 {
				t.Fatalf("%s: %d of %d jobs failed: %s", w.Name, res.Failed, res.Jobs, res.Error)
			}
			runs = append(runs, Sample{Result: res})
		}
		if _, failed, problems := Verify(runs); failed != 0 {
			t.Errorf("%s: runs disagree: %v", w.Name, problems)
		}
		digests[w.Name] = runs[0].Digest
	}
	for _, w := range Workloads {
		if w.Twin != "" && digests[w.Name] != digests[w.Twin] {
			t.Errorf("%s simulates differently from its twin %s", w.Name, w.Twin)
		}
	}
}

// TestBenchmarkJSONMatchesCode checks BENCHMARK.json against the
// workloads and metrics dmrbench defines and emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []Metric `json:"end_to_end"`
		PerLayer  []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names, specNames []string
	for _, w := range Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads:\n code %q\n json %q", names, specNames)
	}
	if !slices.Equal(EndToEnd, spec.EndToEnd) {
		t.Errorf("end_to_end:\n code %v\n json %v", EndToEnd, spec.EndToEnd)
	}
	if !slices.Equal(PerLayer, spec.PerLayer) {
		t.Errorf("per_layer:\n code %v\n json %v", PerLayer, spec.PerLayer)
	}

	w, _ := Lookup("fs_sparse")
	run := Sample{Result: Execute(w, Options{Seed: 1, Scale: 100, Setups: 1, Traced: true})}
	emitted := func(m map[string]float64) []string { return slices.Sorted(maps.Keys(m)) }
	defined := func(ms []Metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	if got, want := emitted(SummarizeE2E([]Sample{run})), defined(EndToEnd); !slices.Equal(got, want) {
		t.Errorf("emitted end-to-end metrics %q, defined %q", got, want)
	}
	layers := SummarizeLayers([]Sample{run}, []Sample{run}, nil, &Ledger{})
	if got, want := emitted(layers), defined(PerLayer); !slices.Equal(got, want) {
		t.Errorf("emitted per-layer metrics %q, defined %q", got, want)
	}
}

// TestLayerOf charges the canned stacks in testdata/stacks.txt.
func TestLayerOf(t *testing.T) {
	f, err := os.Open("testdata/stacks.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want, frames, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		if got := LayerOf(strings.Split(frames, ";")); got != want {
			t.Errorf("LayerOf(%s) = %s, want %s", frames, got, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no stacks read")
	}
}

// TestReadProfile decodes a profile the Go runtime wrote: the goroutine
// profile shares the CPU profile's gzipped protocol-buffer format.
func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	stacks, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var l Ledger
	l.Add(stacks)
	if l.ByLayer["bench"] == 0 {
		t.Fatalf("no stack charged to this test's own package among %d stacks", len(stacks))
	}
	if _, err := ReadProfile(strings.NewReader("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 9}, [3]float64{6.5, 8, 9.5}},
	} {
		q1, med, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestJudge covers each verdict of the pairwise comparison.
func TestJudge(t *testing.T) {
	jps := EndToEnd[0] // higher is better
	around := func(base float64, n int) []float64 {
		var out []float64
		for i := range n {
			out = append(out, base+float64(i%3)) // spread ~2%
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster", around(100, 10), around(130, 10), "improved"},
		{"slower", around(100, 10), around(70, 10), "regressed"},
		{"same", around(100, 10), around(100, 10), "unchanged"},
		{"within bound", around(100, 10), around(95, 10), "unchanged"},
		{"too few pairs", around(100, 5), around(130, 5), "unresolved"},
		{"noisy", []float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}, around(100, 10), "unresolved"},
	} {
		if got := Judge(jps, c.parent, c.change).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
