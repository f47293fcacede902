// Command benchmark is the repository's one benchmark: it drives the
// validator through its public Go API on three workloads, checks every
// verdict against a known answer, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer ones) as the JSON object on its last
// line. See README.md in this directory for the metric definitions.
//
//	go build -o bench . && ./bench -workload corpus-certified -seed 1 -seconds 25 -trace 0
//
// It runs from the root of a checkout and keeps what it writes — span
// files and scratch directories — under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// stateDir holds everything the benchmark writes, relative to the
// checkout root it runs from.
var stateDir = filepath.Join(".bench_build", "benchmark")

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"corpus-certified", "corpus-deadline", "daemon-mixed"}

// workload is one named input set and the way it is driven.
type workload interface {
	// setup builds the inputs (and any server) for a measured phase,
	// replacing what an earlier call built.
	setup(tr *tracer) (setupTimes, error)
	// measure runs one measured phase; tr is nil with tracing off.
	measure(tr *tracer) (*phase, error)
	teardown()
	describe() string
}

// setupTimes splits one set-up: total wall time, and the part spent
// generating the corpus.
type setupTimes struct{ total, generate time.Duration }

// phase is the outcome of one measured phase.
type phase struct {
	e2e       map[string]float64
	layer     map[string]float64
	latencies []float64 // the samples behind fn_latency_*
	counters  counters
	attempted int
	failed    int
	problems  []string // known-answer violations
	notes     []string
}

func newPhase() *phase {
	return &phase{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// violation records an output that contradicts its known answer.
func (p *phase) violation(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// combine merges the rounds of a measured phase (repeated validations of
// one corpus, or consecutive windows of the daemon's loop). Throughput,
// CPU, decided share and the per-layer metrics are the median over the
// rounds; the latency percentiles pool the rows of every round; peak RSS
// is the process's. Known-answer checks and notes cover every round.
func combine(rounds []*phase) *phase {
	ph := newPhase()
	for k := range rounds[0].e2e {
		ph.e2e[k] = medianOver(rounds, func(p *phase) float64 { return p.e2e[k] })
	}
	for k := range rounds[0].layer {
		ph.layer[k] = medianOver(rounds, func(p *phase) float64 { return p.layer[k] })
	}
	for _, r := range rounds {
		ph.latencies = append(ph.latencies, r.latencies...)
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.problems = append(ph.problems, r.problems...)
		ph.notes = append(ph.notes, r.notes...)
	}
	ph.counters = rounds[0].counters
	ph.e2e["fn_latency_p90_s"] = percentile(ph.latencies, 0.9)
	ph.e2e["peak_rss_mb"] = rounds[len(rounds)-1].e2e["peak_rss_mb"] // getrusage's peak covers all rounds
	return ph
}

func medianOver(rounds []*phase, f func(*phase) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run. Exit codes: 0 all outputs correct,
// 1 a known-answer or steadiness violation (the result line says
// correct=false), 2 the run could not be made (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 25, "length of one measured phase")
	traceFlag := fs.Int("trace", 0, "1: also run a traced phase and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(stateDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(filepath.Join(stateDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	w, err := newWorkload(*name, *seed, *seconds, tmp)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer w.teardown()
	code, err := measureRun(w, *name, *seed, *seconds, *traceFlag == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 2
	}
	return code
}

func newWorkload(name string, seed int64, seconds int, tmp string) (workload, error) {
	workers := runtime.NumCPU()
	if spec, ok := corpusSpecs[name]; ok {
		n := max(10, int(spec.perSecond*float64(seconds))/spec.rounds)
		if spec.exactCounters {
			workers = 1
		}
		return &corpusWorkload{spec: spec, seed: seed, n: n, workers: workers, tmp: tmp}, nil
	}
	if name == "daemon-mixed" {
		return &daemonWorkload{seed: seed, seconds: time.Duration(seconds) * time.Second,
			workers: workers, clients: min(2, workers), tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func measureRun(w workload, name string, seed int64, seconds int, traced bool, out io.Writer) (int, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups, gens []float64
	for rep := 0; rep < setupReps; rep++ {
		st, err := w.setup(tr)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st.total.Seconds())
		gens = append(gens, st.generate.Seconds())
	}
	fmt.Fprintf(out, "benchmark workload=%s seed=%d seconds=%d trace=%t\n", name, seed, seconds, traced)
	fmt.Fprintf(out, "host %s\n", fingerprint())
	fmt.Fprintf(out, "inputs %s\n", w.describe())

	base, err := w.measure(nil)
	if err != nil {
		return 0, err
	}
	base.e2e["setup_s"] = median(setups)
	check := newPhase() // known answers outside the measured phases
	if dw, ok := w.(*daemonWorkload); ok {
		for _, p := range dw.setupFail {
			check.violation("%s", p)
		}
	} else if err := soundnessProbes(check); err != nil {
		return 0, err
	}
	report := []*phase{base, check}

	fmt.Fprintf(out, "counters %v\n", base.counters)
	printPhase(out, "untraced", base)

	res := result{Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{base.e2e[m.name], m.unit}
		}
	} else {
		tp, err := w.measure(tr)
		if err != nil {
			return 0, err
		}
		tp.e2e["setup_s"] = base.e2e["setup_s"]
		report = append(report, tp)
		printPhase(out, "traced", tp)
		fmt.Fprintf(out, "counters traced %v\n", tp.counters)
		if cw, ok := w.(*corpusWorkload); ok && cw.spec.exactCounters && tp.counters != base.counters {
			check.violation("traced loop did different work: counters %v, harness.Run %v", tp.counters, base.counters)
		}
		for _, m := range endToEnd[1:] {
			fmt.Fprintf(out, "overhead %-18s untraced %-12.6g traced %-12.6g traced-untraced %+.6g %s\n",
				m.name, base.e2e[m.name], tp.e2e[m.name], tp.e2e[m.name]-base.e2e[m.name], m.unit)
		}
		layer := tp.layer
		// The harness layer is only reachable through harness.Run, which
		// the untraced phase drives.
		for _, k := range []string{"harness.fn_latency_p50_s", "harness.queue_wait_s", "harness.busy_share"} {
			if v, ok := base.layer[k]; ok {
				layer[k] = v
			}
		}
		layer["corpus.generate_s"] = median(gens)
		recs := tr.records()
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layer[m.name], m.unit}
			fmt.Fprintf(out, "layer %-26s %-14.6g %s\n", m.name, layer[m.name], m.unit)
		}
		spanFile := filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.writeJSONL(spanFile); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(recs), spanFile)
	}

	for _, p := range report {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	for _, p := range report {
		for i, pr := range p.problems {
			if i == 20 {
				fmt.Fprintf(out, "violation ... %d more\n", len(p.problems)-i)
				break
			}
			fmt.Fprintf(out, "violation %s\n", pr)
		}
	}
	fmt.Fprintf(out, "known answers: attempted=%d failed=%d error_share=%.6g\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// printPhase writes a phase's end-to-end metrics and notes.
func printPhase(out io.Writer, label string, p *phase) {
	for _, m := range endToEnd {
		fmt.Fprintf(out, "%s %-18s %-14.6g %s\n", label, m.name, p.e2e[m.name], m.unit)
	}
	fmt.Fprintf(out, "%s fn_latency samples=%d beyond_p90=%d\n", label, len(p.latencies), beyond(p.latencies, 0.9))
	keys := make([]string, 0, len(p.layer))
	for k := range p.layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.HasPrefix(k, "harness.fn_") || strings.HasPrefix(k, "proof.") || strings.HasPrefix(k, "tvd.") || strings.HasPrefix(k, "store.") {
			fmt.Fprintf(out, "%s %-26s %.6g\n", label, k, p.layer[k])
		}
	}
	for _, n := range p.notes {
		fmt.Fprintf(out, "%s %s\n", label, n)
	}
}
