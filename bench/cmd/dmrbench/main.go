// Command dmrbench runs the simulator's end-to-end benchmark. Every
// execution of a workload runs in a fresh child process at GOMAXPROCS=1
// (the simulation kernel runs one goroutine at a time, so a second
// processor only adds scheduling noise). It prints one
// "workload metric value unit" line per metric and, last, one JSON
// object with the verdict of the correctness oracle and the metrics.
//
// Run one workload for 20 seconds, or every workload four times:
//
//	dmrbench -workload fs_sparse -seed 1 -seconds 20 -trace 0
//	dmrbench -seed 1 -reps 4 -out res.jsonl
//
// -trace 1 adds traced executions (per-layer counters and a CPU
// profile) and reports the per-layer metrics; profiles, Chrome-trace
// spans and layers.json land in -tracedir. -compare judges two -out
// files of alternating parent and change invocations:
//
//	dmrbench -compare parent.jsonl change.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench"
)

// childTimeout bounds one execution; the largest takes a few seconds.
const childTimeout = 120 * time.Second

func main() {
	name := flag.String("workload", "", "run one workload (default: every workload)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 0, "per workload, keep adding executions while the next one is expected to finish within this many seconds")
	reps := flag.Int("reps", bench.Streams, "executions per workload at least; they cycle through the seed's input streams")
	trace := flag.Int("trace", 0, "1: add traced executions and report the per-layer metrics")
	traceDir := flag.String("tracedir", filepath.Join(".bench_build", "trace"), "directory for the traced executions' profiles, spans and layers.json")
	out := flag.String("out", "", "append this invocation's results to this file as one JSON line")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: parent, then change")
	child := flag.Bool("child", false, "run one execution in this process and print its result (used by the parent)")
	profile := flag.String("profile", "", "with -child: trace the execution and write a CPU profile of its run phase to this file")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files: parent.jsonl change.jsonl"))
		}
		fatal(runCompare(flag.Arg(0), flag.Arg(1)))
	case *child:
		fatal(runChild(*name, *seed, *profile))
	default:
		workloads := bench.Workloads
		if *name != "" {
			w, err := bench.Lookup(*name)
			if err != nil {
				fatal(err)
			}
			workloads = []bench.Workload{w}
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
		}
		if !runSet(workloads, *seed, max(*reps, 1), *seconds, *trace == 1, *traceDir, *out) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmrbench:", err)
		os.Exit(2)
	}
}

// runChild is one execution, reported as a JSON Result on stdout. With
// a profile path it is a traced execution.
func runChild(name string, seed int64, profile string) error {
	w, err := bench.Lookup(name)
	if err != nil {
		return err
	}
	opt := bench.Options{Seed: seed, Setups: 11, SetupSeconds: 0.25}
	var f *os.File
	if profile != "" {
		if f, err = os.Create(profile); err != nil {
			return err
		}
		opt.Traced, opt.Profile = true, f
	}
	res := bench.Execute(w, opt)
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// workloadSet is one workload's executions within an invocation.
type workloadSet struct {
	untraced, traced, twin []bench.Sample
	profiles               []string             // CPU profiles of the traced executions
	runs                   map[int]bench.Result // every execution by run id, for the span trace
}

// measure runs a workload's executions: at least reps, and more while
// the next is expected to end within seconds of the start. Execution n
// replays stream n of the seed; with trace, each untraced execution is
// followed by a traced one of the same stream and, for a telemetry
// workload, by one of its twin.
func measure(w bench.Workload, seed int64, reps int, seconds float64, trace bool, dir string, runID *int) workloadSet {
	set := workloadSet{runs: map[int]bench.Result{}}
	run := func(name string, n int, traced bool) bench.Sample {
		*runID++
		prof := ""
		if traced {
			prof = filepath.Join(dir, fmt.Sprintf("%s-%d.pprof", w.Name, *runID))
			set.profiles = append(set.profiles, prof)
		}
		s := execute(name, bench.StreamSeed(seed, n), prof)
		set.runs[*runID] = s.Result
		return s
	}
	start := time.Now()
	for n := 0; n < reps || time.Since(start).Seconds()*float64(n+1)/float64(n) <= seconds; n++ {
		set.untraced = append(set.untraced, run(w.Name, n, false))
		if trace {
			set.traced = append(set.traced, run(w.Name, n, true))
			if w.Twin != "" {
				set.twin = append(set.twin, run(w.Twin, n, false))
			}
		}
	}
	return set
}

// runSet measures every workload and reports it. It returns whether
// every execution passed the correctness oracle.
func runSet(workloads []bench.Workload, seed int64, reps int, seconds float64, trace bool, dir, out string) bool {
	if trace {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	record := bench.Record{Seed: seed, Workloads: map[string]bench.WorkloadRecord{}}
	result := map[string]any{}
	ok := true
	var attempted, failed int
	runID := 0
	for _, w := range workloads {
		set := measure(w, seed, reps, seconds, trace, dir, &runID)
		a, f, problems := bench.Verify(slices.Concat(set.untraced, set.traced))
		ta, tf, tp := bench.Verify(set.twin)
		attempted, failed = attempted+a+ta, failed+f+tf
		for _, p := range append(problems, tp...) {
			fmt.Fprintln(os.Stderr, "dmrbench: FAIL", p)
			ok = false
		}

		e2e := bench.SummarizeE2E(set.untraced)
		report(w.Name, bench.EndToEnd, e2e)
		wr := bench.WorkloadRecord{Digest: bench.SetDigest(set.untraced), E2E: map[string][]float64{}}
		for _, m := range bench.EndToEnd {
			for _, s := range set.untraced {
				wr.E2E[m.Name] = append(wr.E2E[m.Name], bench.E2EValue(m.Name, s))
			}
		}
		metrics, defs := e2e, bench.EndToEnd
		if trace {
			ledger, err := traceArtifacts(w.Name, dir, set)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dmrbench: FAIL", w.Name, err)
				ok = false
			}
			wr.Layers = bench.SummarizeLayers(set.untraced, set.traced, set.twin, ledger)
			report(w.Name, bench.PerLayer, wr.Layers)
			metrics, defs = wr.Layers, bench.PerLayer
		}
		fmt.Printf("%s sim_digest %s sha256\n", w.Name, wr.Digest)
		record.Workloads[w.Name] = wr
		for _, m := range defs {
			key := m.Name
			if len(workloads) > 1 {
				key = w.Name + "/" + m.Name
			}
			result[key] = map[string]any{"value": metrics[m.Name], "unit": m.Unit}
		}
	}
	if out != "" {
		if err := appendRecord(out, record); err != nil {
			fatal(err)
		}
	}
	last, err := json.Marshal(map[string]any{"correct": ok, "attempted": attempted, "failed": failed, "metrics": result})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
	return ok
}

// report prints one "workload metric value unit" line per metric.
func report(workload string, defs []bench.Metric, values map[string]float64) {
	for _, m := range defs {
		fmt.Printf("%s %s %s %s\n", workload, m.Name, strconv.FormatFloat(values[m.Name], 'g', -1, 64), m.Unit)
	}
}

// execute runs one execution in a child process at GOMAXPROCS=1; a
// profile path makes it a traced execution.
func execute(name string, seed int64, profile string) bench.Sample {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var s bench.Sample
	if err = cmd.Start(); err == nil {
		var rss []float64
		rss, err = waitSampling(cmd)
		s.MeanRSSMB = bench.Mean(rss)
	}
	if err == nil {
		err = json.Unmarshal(stdout.Bytes(), &s.Result)
	}
	if err != nil {
		w, _ := bench.Lookup(name)
		msg := stderr.Bytes()
		msg = msg[max(len(msg)-2000, 0):]
		s.Result = bench.Result{Workload: name, Seed: seed, Jobs: w.Jobs, Failed: w.Jobs, Error: fmt.Sprintf("child process: %v\n%s", err, msg)}
	}
	if cmd.ProcessState == nil {
		return s
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return s
}

// rssEvery is how often the parent reads a running child's resident set.
const rssEvery = 5 * time.Millisecond

// waitSampling waits for a started child and, until it ends, reads its
// resident set size from /proc every rssEvery. It returns the readings
// in MB; a time average of them is steadier than the peak, which jumps
// with where the garbage collector's cycle and the last slice growth
// happen to fall on a given input.
func waitSampling(cmd *exec.Cmd) ([]float64, error) {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	statm := fmt.Sprintf("/proc/%d/statm", cmd.Process.Pid)
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	var mb []float64
	for {
		select {
		case err := <-done:
			return mb, err
		case <-tick.C:
			b, err := os.ReadFile(statm)
			if err != nil {
				continue
			}
			// The second field is the resident set in pages; an exited,
			// not yet reaped child reads 0.
			if f := strings.Fields(string(b)); len(f) > 1 {
				if pages, err := strconv.Atoi(f[1]); err == nil && pages > 0 {
					mb = append(mb, float64(pages)*pageMB)
				}
			}
		}
	}
}

// traceArtifacts charges the traced executions' CPU profiles to layers
// and writes <workload>.layers.json (CPU seconds and share per layer of
// the traced executions' run phases) and <workload>.trace.json (every
// execution's spans).
func traceArtifacts(name, dir string, set workloadSet) (*bench.Ledger, error) {
	ledger := &bench.Ledger{}
	for _, p := range set.profiles {
		f, err := os.Open(p)
		if err != nil {
			return ledger, err
		}
		stacks, err := bench.ReadProfile(f)
		f.Close()
		if err != nil {
			return ledger, fmt.Errorf("%s: %w", p, err)
		}
		ledger.Add(stacks)
	}
	var runS float64
	for _, s := range set.traced {
		runS += s.RunS
	}
	layers := map[string]float64{"samples": float64(ledger.Samples)}
	for l := range ledger.ByLayer {
		layers[l+".cpu_s"] = ledger.Share(l) * runS
		layers[l+".cpu_share"] = ledger.Share(l)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(layers); err != nil {
		return ledger, err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".layers.json"), buf.Bytes(), 0o644); err != nil {
		return ledger, err
	}
	buf.Reset()
	if err := bench.WriteChromeTrace(&buf, set.runs); err != nil {
		return ledger, err
	}
	return ledger, os.WriteFile(filepath.Join(dir, name+".trace.json"), buf.Bytes(), 0o644)
}

func appendRecord(path string, rec bench.Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runCompare(parentPath, changePath string) error {
	parent, err := bench.ReadRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := bench.ReadRecords(changePath)
	if err != nil {
		return err
	}
	rows := bench.Compare(parent, change)
	if len(rows) == 0 {
		return fmt.Errorf("no workload appears in both %s and %s", parentPath, changePath)
	}
	bench.WriteRows(os.Stdout, rows)
	return nil
}
