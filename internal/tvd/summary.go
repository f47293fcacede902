package tvd

import (
	"time"

	"repro/internal/harness"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// Summary reconstructs a harness.Summary from a batch result, so a
// remote run renders through the exact same Figure6/Figure7/RenderStats
// code as a local one. Latency histograms do not cross the wire (only
// their quantiles do, in Stats.Latency), so Figure7 falls back to its
// per-row duration path and RenderStats omits the latency line.
func (r *BatchResult) Summary() *harness.Summary {
	sum := &harness.Summary{
		Total:   len(r.Rows),
		Metrics: telemetry.NewMetrics(),
	}
	for _, row := range r.Rows {
		c, _ := tv.ParseClass(row.Class)
		sum.Rows = append(sum.Rows, harness.ResultRow{
			Fn:        row.Fn,
			Class:     c,
			CodeSize:  row.CodeSize,
			Duration:  time.Duration(row.DurationNS),
			Certified: row.Certified,
		})
	}
	if s := r.Stats; s != nil {
		sum.Workers = s.Workers
		sum.WallTime = time.Duration(s.WallSeconds * float64(time.Second))
		sum.CPUTime = time.Duration(s.CPUSeconds * float64(time.Second))
		sum.Certified = s.Certified
		sum.CertFailed = s.CertFailed
		sum.SMTStats = smt.Stats{
			Queries:       s.SMT.Queries,
			FastQueries:   s.SMT.FastQueries,
			CacheHits:     s.SMT.CacheHits,
			CacheMisses:   s.SMT.CacheMisses,
			CacheBytes:    s.SMT.CacheBytes,
			SATConflicts:  s.SMT.Conflicts,
			SATDecisions:  s.SMT.Decisions,
			CNFClauses:    s.SMT.Clauses,
			SolveDuration: time.Duration(s.SMT.SolveSeconds * float64(time.Second)),
			ProofBytes:    s.SMT.ProofBytes,
			Certificates:  s.SMT.Certificates,

			SubsumedClauses:     s.SMT.SubsumedClauses,
			StrengthenedClauses: s.SMT.StrengthenedClauses,
			VivifiedClauses:     s.SMT.VivifiedClauses,
			EliminatedVars:      s.SMT.EliminatedVars,

			Races:               s.SMT.Races,
			RaceRacerWins:       s.SMT.RaceRacerWins,
			RaceWastedConflicts: s.SMT.RaceWastedConflicts,

			CubeEscalations: s.SMT.CubeEscalations,
			CubesGenerated:  s.SMT.CubesGenerated,
			CubesRefuted:    s.SMT.CubesRefuted,
			CubesSat:        s.SMT.CubesSat,
			CubeSteals:      s.SMT.CubeSteals,
		}
	}
	return sum
}
