package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Record is one invocation's results, one JSON line of an -out file.
// Appending the records of alternating parent and change invocations
// to two files yields the pairs Compare judges.
type Record struct {
	Seed      int64                     `json:"seed"`
	Workloads map[string]WorkloadRecord `json:"workloads"`
}

// WorkloadRecord holds one workload's results within a Record.
type WorkloadRecord struct {
	Digest string `json:"sim_digest"`
	// E2E holds each untraced execution's value of each end-to-end metric.
	E2E map[string][]float64 `json:"e2e"`
	// Layers holds the per-layer metrics of a traced invocation.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// ReadRecords reads an -out file and concatenates, per workload and
// end-to-end metric, the executions of every record in file order.
func ReadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for w, wr := range rec.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for m, vs := range wr.E2E {
				out[w][m] = append(out[w][m], vs...)
			}
		}
	}
	return out, sc.Err()
}

// Row is one comparison of an end-to-end metric on one workload.
type Row struct {
	Workload, Metric string
	// Parent and Change are each side's first quartile, median and
	// third quartile.
	Parent, Change [3]float64
	Wins, Pairs    int
	Verdict        string
}

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved needs.
const minPairs = 10

// Judge compares the i-th parent execution with the i-th change
// execution. A gain needs the change to win at least nine in ten pairs
// and a median gap wider than the parent's interquartile range. A
// metric whose spread on either side exceeds its bound is unresolved,
// unless every change execution beats every parent one. Otherwise the
// change regressed when its median is worse than the parent's by more
// than the bound.
func Judge(m Metric, parent, change []float64) Row {
	row := Row{Metric: m.Name, Pairs: min(len(parent), len(change))}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range row.Pairs {
		if sign*(change[i]-parent[i]) > 0 {
			row.Wins++
		}
	}
	pq1, pm, pq3 := Quartiles(parent)
	cq1, cm, cq3 := Quartiles(change)
	row.Parent, row.Change = [3]float64{pq1, pm, pq3}, [3]float64{cq1, cm, cq3}
	gain := sign * (cm - pm) // positive when the change is better
	spread := max((pq3-pq1)/math.Abs(pm), (cq3-cq1)/math.Abs(cm))
	switch {
	case row.Pairs < minPairs:
		row.Verdict = "unresolved"
	case 10*row.Wins >= 9*row.Pairs && gain > pq3-pq1:
		row.Verdict = "improved"
	case spread > m.Bound && !separated(sign, parent, change):
		row.Verdict = "unresolved"
	case -gain > m.Bound*math.Abs(pm):
		row.Verdict = "regressed"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

// separated reports whether every change value beats every parent value.
func separated(sign float64, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	if sign > 0 {
		return slices.Min(change) > slices.Max(parent)
	}
	return slices.Max(change) < slices.Min(parent)
}

// Compare judges every end-to-end metric of every workload present in
// both sets, in workload order.
func Compare(parent, change map[string]map[string][]float64) []Row {
	var rows []Row
	for _, w := range Workloads {
		p, c := parent[w.Name], change[w.Name]
		if p == nil || c == nil {
			continue
		}
		for _, m := range EndToEnd {
			row := Judge(m, p[m.Name], c[m.Name])
			row.Workload = w.Name
			rows = append(rows, row)
		}
	}
	return rows
}

// WriteRows prints comparison rows as an aligned table.
func WriteRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-14s %-13s %32s %32s %7s  %s\n", "workload", "metric", "parent q1/med/q3", "change q1/med/q3", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-13s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %3d/%-3d  %s\n",
			r.Workload, r.Metric, r.Parent[0], r.Parent[1], r.Parent[2],
			r.Change[0], r.Change[1], r.Change[2], r.Wins, r.Pairs, r.Verdict)
	}
}
