package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// tracedConfig is the 4-worker traced run used by the concurrency tests;
// the deterministic term-node budget keeps classes identical across runs
// (see TestParallelRowsDeterministic).
func tracedConfig(tracer *telemetry.Tracer) Config {
	return Config{
		Profile:         parallelProfile,
		Budget:          tv.Budget{MaxTermNodes: 4_000_000},
		InadequateEvery: 7,
		Workers:         4,
		Tracer:          tracer,
	}
}

// TestTracedRunRowsIdentical: turning the tracer on must be pure
// observation — every row of a traced 4-worker run matches the untraced
// run. Under -race this also exercises the tracer's concurrency safety.
func TestTracedRunRowsIdentical(t *testing.T) {
	plain := Run(tracedConfig(nil))
	tracer := telemetry.NewTracer()
	traced := Run(tracedConfig(tracer))

	if len(plain.Rows) != len(traced.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(plain.Rows), len(traced.Rows))
	}
	for i := range plain.Rows {
		p, q := plain.Rows[i], traced.Rows[i]
		if p.Fn != q.Fn || p.Class != q.Class || p.CodeSize != q.CodeSize {
			t.Errorf("row %d differs: untraced {%s %v %d} vs traced {%s %v %d}",
				i, p.Fn, p.Class, p.CodeSize, q.Fn, q.Class, q.CodeSize)
		}
	}
	if tracer.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestTraceSpansNest: the spans of a parallel corpus run lint clean
// (unique ids, parents exist, children within parent intervals), every
// function has exactly one root with the full phase chain beneath it, and
// the per-phase child spans of each tv.validate span account for its
// duration (within 10% plus scheduling slack).
func TestTraceSpansNest(t *testing.T) {
	tracer := telemetry.NewTracer()
	sum := Run(tracedConfig(tracer))
	records := tracer.Records()
	if err := telemetry.Lint(records); err != nil {
		t.Fatalf("trace lint: %v", err)
	}

	byID := make(map[telemetry.SpanID]telemetry.Record, len(records))
	for _, r := range records {
		byID[r.ID] = r
	}
	// fn name -> summed child phase durations of its tv.validate span.
	validateByFn := make(map[string]telemetry.Record)
	childSum := make(map[telemetry.SpanID]int64)
	roots := 0
	for _, r := range records {
		switch r.Name {
		case "harness.fn":
			if r.Parent != 0 {
				t.Errorf("harness.fn span %d has parent %d, want root", r.ID, r.Parent)
			}
			roots++
		case "tv.validate":
			fn, _ := r.Attrs["fn"].(string)
			validateByFn[fn] = r
		case "tv.isel", "tv.vcgen", "tv.check":
			childSum[r.Parent] += r.DurNS
		}
	}
	if roots != sum.Total {
		t.Fatalf("%d harness.fn roots, want %d", roots, sum.Total)
	}
	if len(validateByFn) != sum.Total {
		t.Fatalf("%d tv.validate spans, want %d", len(validateByFn), sum.Total)
	}
	for _, row := range sum.Rows {
		v, ok := validateByFn[row.Fn]
		if !ok {
			t.Errorf("no tv.validate span for %s", row.Fn)
			continue
		}
		if class, _ := v.Attrs["class"].(string); class != row.Class.String() {
			t.Errorf("%s: span class %q, row class %q", row.Fn, class, row.Class)
		}
		// The phase spans are everything tv.validate does except mod.Func
		// lookup and span bookkeeping: their sum must explain the span's
		// own duration. 2ms slack absorbs scheduler noise on tiny rows.
		phases := childSum[v.ID]
		if slack := v.DurNS/10 + 2_000_000; phases < v.DurNS-slack {
			t.Errorf("%s: phase spans cover %dns of %dns validate span (slack %dns)",
				row.Fn, phases, v.DurNS, slack)
		}
	}
}

// TestMetricsMatchRows: the run-wide Metrics registry (merged from the
// per-worker shards) must agree with the rows it summarizes.
func TestMetricsMatchRows(t *testing.T) {
	sum := Run(tracedConfig(nil))
	if sum.Metrics == nil {
		t.Fatal("Summary.Metrics is nil")
	}
	h := sum.Metrics.Hist("fn.duration")
	if h.Count != int64(sum.Total) {
		t.Errorf("fn.duration count = %d, want %d", h.Count, sum.Total)
	}
	var classTotal int64
	for c, n := range sum.Counts() {
		got := sum.Metrics.Counter("class." + c.String())
		if got != int64(n) {
			t.Errorf("class.%s counter = %d, rows say %d", c, got, n)
		}
		classTotal += got
	}
	if classTotal != int64(sum.Total) {
		t.Errorf("class counters sum to %d, want %d", classTotal, sum.Total)
	}
	if sum.SMTStats.Queries > 0 {
		q := sum.Metrics.Hist("smt.query")
		if q.Count != sum.SMTStats.Queries {
			t.Errorf("smt.query observations = %d, solver stats say %d",
				q.Count, sum.SMTStats.Queries)
		}
	}
}

// TestParseAllocationSampled: the parse phase of a function that parses
// is charged with the bytes the parser allocated (Mem.Parse > 0, which
// the job registry records as one mem.parse observation). runtime/metrics
// counts small allocations when a size class's cached span is refilled,
// so the function is long enough for its parse to refill spans.
func TestParseAllocationSampled(t *testing.T) {
	const n = 300
	var src strings.Builder
	src.WriteString("define i32 @chain(i32 %v0) {\nentry:\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&src, "  %%v%d = add i32 %%v%d, %d\n", i, i-1, i)
	}
	fmt.Fprintf(&src, "  ret i32 %%v%d\n}\n", n)
	fn := corpus.Function{Name: "chain", Src: src.String()}
	row, _, m := validateOne(Job{Fn: fn, Budget: tv.Budget{MaxTermNodes: 4_000_000}})
	if row.Class == tv.ClassOther {
		t.Fatalf("validating the chain: %v", row.Err)
	}
	h := m.Hist("mem.parse")
	if h.Count != 1 || h.Min <= 0 {
		t.Fatalf("mem.parse = %d observations (min %d), want one positive sample", h.Count, h.Min)
	}
}

// TestPhaseReportRendering: the per-phase table renders from a real run
// with every pipeline phase present.
func TestPhaseReportRendering(t *testing.T) {
	sum := Run(tracedConfig(nil))
	var b strings.Builder
	sum.PhaseReport(&b)
	out := b.String()
	for _, want := range []string{"Per-phase time breakdown", "parse", "isel", "vcgen", "check", "step", "smt", "%cpu"} {
		if !strings.Contains(out, want) {
			t.Errorf("PhaseReport output missing %q:\n%s", want, out)
		}
	}
}

// TestFigure7FromMetrics: Figure 7 renders the time distribution from the
// metrics histogram (log2 buckets) when one was recorded.
func TestFigure7FromMetrics(t *testing.T) {
	sum := Run(tracedConfig(nil))
	var b strings.Builder
	sum.Figure7(&b)
	out := b.String()
	for _, want := range []string{"log2 buckets", "median", "Code size", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure7 output missing %q:\n%s", want, out)
		}
	}
}

// TestTimeoutRowsRespectBudget is the acceptance test for the SAT-level
// deadline poll: with a tight wall-clock budget no row may overrun its
// timeout by more than a second — previously one long restart segment
// could blow way past it.
func TestTimeoutRowsRespectBudget(t *testing.T) {
	budget := tv.Budget{Timeout: 150 * time.Millisecond}
	sum := Run(Config{Profile: corpus.GCCLike(20), Budget: budget, Workers: 4})
	for _, r := range sum.Rows {
		if r.Class != tv.ClassTimeout {
			continue
		}
		if over := r.Duration - budget.Timeout; over > time.Second {
			t.Errorf("%s: timeout row ran %v against a %v budget (%v over)",
				r.Fn, r.Duration, budget.Timeout, over)
		}
	}
}

// TestProofEmissionFailureReported: when certificate writing fails (here:
// ProofDir is a regular file), the failure must surface in the row's
// ProofErr, the summary's CertFailed count, and the stats rendering —
// never silently as Certified=false.
func TestProofEmissionFailureReported(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := Run(Config{
		Functions: []corpus.Function{goodFn("pe1"), goodFn("pe2")},
		Budget:    tv.Budget{Timeout: time.Minute},
		Workers:   1,
		ProofDir:  notADir,
	})
	if sum.CertFailed != 2 {
		t.Fatalf("CertFailed = %d, want 2 (rows: %+v)", sum.CertFailed, sum.Rows)
	}
	for _, r := range sum.Rows {
		if r.ProofErr == nil {
			t.Errorf("%s: ProofErr is nil", r.Fn)
		}
		if r.Certified {
			t.Errorf("%s: Certified despite write failure", r.Fn)
		}
	}
	if sum.firstProofErr() == nil {
		t.Error("firstProofErr() = nil with failed rows present")
	}
	var b strings.Builder
	sum.RenderStats(&b)
	if !strings.Contains(b.String(), "Proof emission FAILED for 2 functions") {
		t.Errorf("RenderStats does not report the proof failures:\n%s", b.String())
	}
}
