package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/isel"
	"repro/internal/llvmir"
	"repro/internal/paperprogs"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/vcgen"
)

// maxTermNodes is the fixed solver term budget of every workload (the
// -max-nodes of the paper's Figure 6 reproduction); functions that
// exceed it are classed out-of-memory.
const maxTermNodes = 3_000_000

// conflictBudget bounds CDCL conflicts per SMT query on the untimed
// workloads. Unlike a wall-clock limit it cuts the rare pathological
// query at the same point on every host and every run, so their
// verdicts and counters repeat exactly.
const conflictBudget = 20_000

// corpusSpec configures one corpus workload.
type corpusSpec struct {
	keep      func(corpus.Function) bool // which reference functions to use (nil: all)
	perSecond float64                    // validations per second of --seconds, over all rounds
	rounds    int                        // validations of the corpus per measured phase
	budget    tv.Budget
	proofs    bool
	portfolio bool
	// exactCounters makes the rounds of a run, and its traced phase,
	// agree on every deterministic counter, or the run fails. It runs one
	// worker: with two, whether an obligation is a VC-cache hit depends
	// on whether a concurrently validated function stored it first, and
	// the counters stop repeating (two rounds of one corpus measured
	// 361,926 and 361,862 decisions).
	exactCounters bool
}

var corpusSpecs = map[string]corpusSpec{
	// The cold corpus → tv → certificates → proofcheck path. Untimed, so
	// every function gets the verdict its inputs determine; the portfolio
	// is off because a race's winner depends on timing.
	"corpus-certified": {
		keep:          small,
		perSecond:     12,
		rounds:        2,
		budget:        tv.Budget{MaxTermNodes: maxTermNodes, ConflictBudget: conflictBudget},
		proofs:        true,
		exactCounters: true,
	},
	// The paper's Figure 6 setting: the whole GCCLike size range under a
	// per-function wall budget tight enough that the tail times out and
	// the portfolio race and cube ladder work on it. One round: GCCLike
	// sizes are so spread out that the median latency needs as many
	// distinct functions as the run can hold.
	"corpus-deadline": {
		perSecond: 8,
		rounds:    1,
		budget:    tv.Budget{Timeout: time.Second, MaxTermNodes: maxTermNodes},
		portfolio: true,
	},
}

// corpusWorkload validates one seed-derived corpus per measured phase.
type corpusWorkload struct {
	spec    corpusSpec
	seed    int64
	n       int
	workers int
	tmp     string

	fns    []corpus.Function
	phases int // proof directories handed out so far
}

func (w *corpusWorkload) inputs() []corpus.Function {
	return permute(referenceCorpus(w.n, w.spec.keep), w.seed)
}

func (w *corpusWorkload) setup(tr *tracer) (setupTimes, error) {
	sp := tr.start(nil, "corpus.Generate")
	t0 := time.Now()
	w.fns = w.inputs()
	d := time.Since(t0)
	sp.end()
	return setupTimes{total: d, generate: d}, nil
}

func (w *corpusWorkload) teardown() {}

func (w *corpusWorkload) describe() string {
	return fmt.Sprintf("functions=%d workers=%d timeout=%s max_nodes=%d conflict_budget=%d proofs=%t portfolio=%t",
		len(w.fns), w.workers, w.spec.budget.Timeout, w.spec.budget.MaxTermNodes,
		w.spec.budget.ConflictBudget, w.spec.proofs, w.spec.portfolio)
}

// proofDir returns a fresh certificate directory, or "" when the
// workload emits no proofs.
func (w *corpusWorkload) proofDir() string {
	if !w.spec.proofs {
		return ""
	}
	w.phases++
	return filepath.Join(w.tmp, fmt.Sprintf("proofs-%d", w.phases))
}

// fnRow is one function's outcome in either measured loop.
type fnRow struct {
	fn        string
	class     tv.Class
	dur       time.Duration
	certified bool
	err       error
}

// measure runs one measured phase: spec.rounds validations of the
// corpus, through harness.Run when tr is nil, through the benchmark's
// own per-layer loop when tracing.
func (w *corpusWorkload) measure(tr *tracer) (*phase, error) {
	var rounds []*phase
	for r := 0; r < w.spec.rounds; r++ {
		ph, err := w.round(tr)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, ph)
	}
	ph := combine(rounds)
	if tr == nil {
		ph.layer["harness.fn_latency_p50_s"] = percentile(ph.latencies, 0.5)
	}
	for _, r := range rounds {
		if w.spec.exactCounters && r.counters != rounds[0].counters {
			ph.violation("steadiness: round counters %v differ from the first round's %v", r.counters, rounds[0].counters)
		}
	}
	return ph, nil
}

// round validates the corpus once.
func (w *corpusWorkload) round(tr *tracer) (*phase, error) {
	mark := tr.now()
	dir := w.proofDir()
	ph := newPhase()
	u0 := readUsage()
	t0 := time.Now()
	var rows []fnRow
	var st smt.Stats
	var queryHist telemetry.Histogram
	if tr == nil {
		sum := harness.Run(harness.Config{
			Functions:        w.fns,
			Workers:          w.workers,
			Budget:           w.spec.budget,
			DisablePortfolio: !w.spec.portfolio,
			ProofDir:         dir,
		})
		if sum.ProofErr != nil {
			return nil, fmt.Errorf("writing certificates: %w", sum.ProofErr)
		}
		var queued, busy time.Duration
		for _, r := range sum.Rows {
			rows = append(rows, fnRow{fn: r.Fn, class: r.Class, dur: r.Duration, certified: r.Certified, err: r.Err})
			queued += r.Started.Sub(r.Submitted)
			busy += r.Finished.Sub(r.Started)
		}
		ph.layer["harness.queue_wait_s"] = queued.Seconds()
		ph.layer["harness.busy_share"] = busy.Seconds() / (sum.WallTime.Seconds() * float64(sum.Workers))
		st = sum.SMTStats
		queryHist = sum.Metrics.Hist("smt.query")
	} else {
		var err error
		if rows, st, queryHist, err = w.tracedLoop(dir, tr, ph); err != nil {
			return nil, err
		}
	}
	wall := time.Since(t0)

	if dir != "" {
		sp := tr.start(nil, "proof.CheckDir")
		c0 := time.Now()
		rep, err := proof.CheckDir(dir)
		checkWall := time.Since(c0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("checking certificates: %w", err)
		}
		ph.layer["proof.check_s"] = checkWall.Seconds()
		ph.layer["proof.rejections"] = float64(len(rep.Rejections))
		ph.layer["proof.check_fn_per_s"] = float64(len(rep.Certified)) / checkWall.Seconds()
		ph.layer["proof.cert_kb_per_fn"] = float64(dirBytes(dir)) / 1024 / float64(len(rows))
		for _, r := range rep.Rejections {
			ph.violation("proofcheck rejected: %s", r)
		}
		verified := map[string]bool{}
		for _, fn := range rep.Certified {
			verified[fn] = true
		}
		for _, r := range rows {
			ph.attempted++
			if r.class == tv.ClassSucceeded && !verified[r.fn] {
				ph.violation("%s: Succeeded but its certificates were not verified", r.fn)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	u1 := readUsage()

	lat := make([]float64, len(rows))
	decided := 0
	for i, r := range rows {
		lat[i] = r.dur.Seconds()
		ph.attempted++
		switch r.class {
		case tv.ClassSucceeded, tv.ClassNotValidated:
			decided++
		case tv.ClassOther:
			// Corpus functions come from the unmodified ISel: a crash or
			// an internal error is never a right answer.
			ph.violation("%s: Other: %v", r.fn, r.err)
		}
	}
	ph.latencies = lat
	ph.e2e["fn_per_s"] = float64(len(rows)) / wall.Seconds()
	ph.e2e["decided_share"] = float64(decided) / float64(len(rows))
	ph.e2e["cpu_s_per_fn"] = (u1.cpu - u0.cpu).Seconds() / float64(len(rows))
	ph.e2e["peak_rss_mb"] = float64(u1.maxRSS) / 1e6
	smtLayer(ph.layer, st)
	ph.layer["smt.query_p99_s"] = queryHist.Quantile(0.99).Seconds()
	ph.counters = countersOf(st)
	ph.notes = append(ph.notes, fmt.Sprintf("classes %v", classCounts(rows)))
	if tr != nil {
		self := selfByName(tr.recordsSince(mark))
		ph.layer["llvmir.parse_s"] = self["llvmir.Parse"].Seconds()
		ph.layer["isel.compile_s"] = self["isel.Compile"].Seconds()
		ph.layer["vcgen.generate_s"] = self["vcgen.Generate"].Seconds()
		ph.layer["proof.flush_s"] = (self["proof.Recorder.Close"] + self["proof.DirWriter.Close"]).Seconds()
	}
	return ph, nil
}

func classCounts(rows []fnRow) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		out[r.class.String()]++
	}
	return out
}

// tracedLoop does what harness.Run does — a pool of workers fed in
// corpus order, one run-wide VC cache, per-worker scratch, a portfolio
// token held per function, streaming certificates — but calls each
// layer itself so every call gets a span.
func (w *corpusWorkload) tracedLoop(dir string, tr *tracer, ph *phase) ([]fnRow, smt.Stats, telemetry.Histogram, error) {
	var dw *proof.DirWriter
	if dir != "" {
		var err error
		if dw, err = proof.NewDirWriter(dir); err != nil {
			return nil, smt.Stats{}, telemetry.Histogram{}, err
		}
	}
	cache := smt.NewCache()
	var pf *smt.Portfolio
	if w.spec.portfolio {
		pf = smt.NewPortfolio(w.workers)
	}
	rows := make([]fnRow, len(w.fns))
	var (
		mu      sync.Mutex // guards st, metrics and acc
		st      smt.Stats
		metrics = telemetry.NewMetrics()
		acc     layerAcc
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := smt.NewScratch()
			for i := range jobs {
				if pf != nil {
					pf.Acquire()
				}
				m := telemetry.NewMetrics()
				row, out, a := w.tracedOne(w.fns[i], tr, dw, core.Options{
					VCCache: cache, Portfolio: pf, Scratch: scratch, Metrics: m,
				})
				if pf != nil {
					pf.Release()
				}
				rows[i] = row // index-disjoint writes
				mu.Lock()
				if out != nil {
					st.Add(out.SMTStats)
				}
				metrics.Merge(m)
				acc.add(a)
				mu.Unlock()
			}
		}()
	}
	for i := range w.fns {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if dw != nil {
		sp := tr.start(nil, "proof.DirWriter.Close")
		err := dw.Close()
		sp.end()
		if err != nil {
			return nil, st, telemetry.Histogram{}, err
		}
		m := &proof.Manifest{Schema: proof.SchemaStreaming, Terms: proof.TermsName, TermCount: dw.Table().Len()}
		for _, r := range rows {
			m.Functions = append(m.Functions, proof.ManifestRow{Name: r.fn, Class: r.class.String(), Certified: r.certified})
		}
		if err := proof.WriteManifest(dir, m); err != nil {
			return nil, st, telemetry.Histogram{}, err
		}
	}
	ph.layer["isel.vx86_instrs"] = float64(acc.vx86Instrs)
	ph.layer["vcgen.sync_points"] = float64(acc.syncPoints)
	ph.layer["core.step_s"] = acc.step.Seconds()
	ph.layer["smt.solve_s"] = acc.solve.Seconds()
	return rows, st, metrics.Hist("smt.query"), nil
}

// layerAcc sums per-function layer counters of the traced loop.
type layerAcc struct {
	vx86Instrs, syncPoints int
	step, solve            time.Duration
}

func (a *layerAcc) add(b layerAcc) {
	a.vx86Instrs += b.vx86Instrs
	a.syncPoints += b.syncPoints
	a.step += b.step
	a.solve += b.solve
}

// tracedOne validates one function the way tv.Validate does, with a span
// around each layer call. The row's duration covers ISel through the
// check, as ResultRow.Duration does.
func (w *corpusWorkload) tracedOne(f corpus.Function, tr *tracer, dw *proof.DirWriter, copts core.Options) (row fnRow, out *tv.Outcome, acc layerAcc) {
	root := tr.start(nil, "bench.fn")
	defer root.end()
	row.fn = f.Name
	defer func() {
		if p := recover(); p != nil {
			row.class, row.err = tv.ClassOther, fmt.Errorf("panic: %v", p)
		}
	}()

	sp := tr.start(root, "llvmir.Parse")
	mod, err := llvmir.Parse(f.Src)
	sp.end()
	if err != nil {
		row.class, row.err = tv.ClassOther, err
		return
	}
	fn := mod.Func(f.Name)
	start := time.Now()
	defer func() { row.dur = time.Since(start) }()
	timeout := w.spec.budget.Timeout
	expired := func() bool { return timeout > 0 && time.Since(start) >= timeout }

	sp = tr.start(root, "isel.Compile")
	res, err := isel.Compile(mod, fn, isel.Options{})
	sp.end()
	if err != nil {
		var uns *isel.ErrUnsupported
		row.class, row.err = tv.ClassOther, err
		if errors.As(err, &uns) {
			row.class = tv.ClassUnsupported
		}
		return
	}
	acc.vx86Instrs = res.Fn.NumInstrs()
	if expired() {
		row.class = tv.ClassTimeout
		return
	}

	sp = tr.start(root, "vcgen.Generate")
	points, err := vcgen.Generate(fn, res.Fn, res.Hints, vcgen.Options{})
	sp.end()
	if err != nil {
		row.class, row.err = tv.ClassOther, err
		return
	}
	acc.syncPoints = len(points)
	if expired() {
		row.class = tv.ClassTimeout
		return
	}

	var rec *proof.Recorder
	if dw != nil {
		rec = dw.NewRecorder(f.Name)
		copts.Proof = rec
	}
	budget := w.spec.budget
	if timeout > 0 {
		// The deadline covers the whole pipeline, as in tv.Validate.
		budget.Timeout = timeout - time.Since(start)
	}
	sp = tr.start(root, "tv.ValidateTranslation")
	out = tv.ValidateTranslation(mod, fn, res.Fn, points, copts, budget)
	sp.end()
	acc.solve = out.Phases.SMT
	acc.step = sp.dur() - out.Phases.SMT
	row.class, row.err = out.Class, out.Err

	if rec != nil {
		sp = tr.start(root, "proof.Recorder.Close")
		_, err := rec.Close(out.Class == tv.ClassSucceeded)
		sp.end()
		row.certified = err == nil && out.Class == tv.ClassSucceeded
		if err != nil {
			row.class, row.err = tv.ClassOther, fmt.Errorf("writing certificates: %w", err)
		}
	}
	return
}

// soundnessProbes runs the paper's §5.2 bug studies: each bug is put
// back into ISel, and the buggy translation must be rejected while the
// correct one validates.
func soundnessProbes(ph *phase) error {
	for _, e := range []harness.BugExperiment{
		{
			Name: "WAW store merge", Program: paperprogs.WAWStores, Fn: "waw_foo",
			GoodOptions: isel.Options{MergeStores: true},
			BadOptions:  isel.Options{BugWAWStoreMerge: true},
		},
		{
			Name: "load narrowing", Program: paperprogs.LoadNarrow, Fn: "narrow_foo",
			BadOptions: isel.Options{BugLoadNarrow: true},
		},
	} {
		r, err := harness.RunBug(e, tv.Budget{MaxTermNodes: maxTermNodes})
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		ph.attempted += 2
		if !r.BugCaught {
			ph.violation("%s: buggy translation classed %s, want Not validated", e.Name, r.BuggyClass)
		}
		if !r.GoodPassed {
			ph.violation("%s: correct translation classed %s, want Succeeded", e.Name, r.GoodClass)
		}
	}
	return nil
}
