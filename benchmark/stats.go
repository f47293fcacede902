package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/smt"
)

// metricDef is one metric of BENCHMARK.json: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off on every workload. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fn_per_s", "1/s"},
	{"fn_latency_p90_s", "s"},
	{"decided_share", "share"},
	{"cpu_s_per_fn", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics, reported by the traced run on
// every workload (a layer the workload does not reach reads 0).
var perLayer = []metricDef{
	{"corpus.generate_s", "s"},
	{"llvmir.parse_s", "s"},
	{"isel.compile_s", "s"},
	{"isel.vx86_instrs", "count"},
	{"vcgen.generate_s", "s"},
	{"vcgen.sync_points", "count"},
	{"core.step_s", "s"},
	{"smt.solve_s", "s"},
	{"smt.queries", "count"},
	{"smt.fast_queries", "count"},
	{"smt.cache_hit_ratio", "share"},
	{"smt.query_p99_s", "s"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.clauses", "count"},
	{"sat.races", "count"},
	{"sat.racer_win_ratio", "share"},
	{"sat.race_wasted_conflicts", "count"},
	{"sat.cube_escalations", "count"},
	{"sat.cube_refute_ratio", "share"},
	{"proof.flush_s", "s"},
	{"proof.certificates", "count"},
	{"proof.check_s", "s"},
	{"proof.rejections", "count"},
	{"proof.check_fn_per_s", "1/s"},
	{"proof.cert_kb_per_fn", "KB"},
	{"harness.fn_latency_p50_s", "s"},
	{"harness.queue_wait_s", "s"},
	{"harness.busy_share", "share"},
	{"tvd.queue_p50_s", "s"},
	{"tvd.overhead_s", "s"},
	{"tvd.refused", "count"},
	{"tvd.batch_latency_p50_s", "s"},
	{"tvd.batch_latency_p90_s", "s"},
	{"tvd.miss_row_s", "s"},
	{"store.hit_ratio", "share"},
	{"store.hit_row_s", "s"},
	{"store.bytes", "bytes"},
}

// smtLayer fills the smt.* and sat.* per-layer metrics from solver
// statistics summed over a run.
func smtLayer(m map[string]float64, st smt.Stats) {
	m["smt.queries"] = float64(st.Queries)
	m["smt.fast_queries"] = float64(st.FastQueries)
	m["smt.cache_hit_ratio"] = ratio(st.CacheHits, st.CacheHits+st.CacheMisses)
	m["sat.conflicts"] = float64(st.SATConflicts)
	m["sat.decisions"] = float64(st.SATDecisions)
	m["sat.clauses"] = float64(st.CNFClauses)
	m["sat.races"] = float64(st.Races)
	m["sat.racer_win_ratio"] = ratio(st.RaceRacerWins, st.Races)
	m["sat.race_wasted_conflicts"] = float64(st.RaceWastedConflicts)
	m["sat.cube_escalations"] = float64(st.CubeEscalations)
	m["sat.cube_refute_ratio"] = ratio(st.CubesRefuted, st.CubesGenerated)
	m["proof.certificates"] = float64(st.Certificates)
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counters are the work counts that repeat exactly on corpus-certified.
type counters struct {
	Conflicts     int64   `json:"sat.conflicts"`
	Decisions     int64   `json:"sat.decisions"`
	Queries       int64   `json:"smt.queries"`
	CacheHitRatio float64 `json:"smt.cache_hit_ratio"`
	Certificates  int64   `json:"proof.certificates"`
}

func countersOf(st smt.Stats) counters {
	return counters{
		Conflicts:     st.SATConflicts,
		Decisions:     st.SATDecisions,
		Queries:       st.Queries,
		CacheHitRatio: ratio(st.CacheHits, st.CacheHits+st.CacheMisses),
		Certificates:  st.Certificates,
	}
}

func (c counters) String() string {
	return fmt.Sprintf("sat.conflicts=%d sat.decisions=%d smt.queries=%d smt.cache_hit_ratio=%.6f proof.certificates=%d",
		c.Conflicts, c.Decisions, c.Queries, c.CacheHitRatio, c.Certificates)
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// beyond counts the samples strictly above the p-quantile: the evidence
// behind a tail percentile.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// usage is a getrusage(RUSAGE_SELF) reading.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}

// fingerprint describes the host a run was measured on.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the checked-out commit, or "none" outside a git work tree.
func gitRev() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD")
	// Only a .git in the working directory counts: never a repository
	// the benchmark's directory happens to sit inside.
	cmd.Env = append(os.Environ(), "GIT_DIR=.git")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
