package harness

import (
	"repro/internal/telemetry"
)

// StatsJSON is the machine-readable form of RenderStats: one JSON
// object carrying the run's headline numbers, the Figure 6 class
// breakdown, the solver totals, and the query-latency quantiles.
// cmd/tv -stats-json prints it; the tvd daemon embeds the same struct
// in its batch summaries, so a local run and a remote one are
// field-for-field comparable.
type StatsJSON struct {
	Functions   int     `json:"functions"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	Speedup     float64 `json:"speedup"`
	// Classes maps Class.String() to its row count (the Figure 6 table).
	Classes map[string]int `json:"classes"`

	SMT SMTStatsJSON `json:"smt"`
	// Latency is the smt.query histogram summary; omitted when no query
	// latencies were observed.
	Latency *LatencyJSON `json:"smt_latency,omitempty"`

	// Certified and CertFailed mirror Summary (zero when proof emission
	// was off).
	Certified  int `json:"certified"`
	CertFailed int `json:"cert_failed"`

	// Counters is the raw telemetry counter snapshot (class.*, store.*,
	// tvd.* ...) — the extension point: a consumer that needs a counter
	// the named fields don't carry reads it here without a schema change.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// SMTStatsJSON is smt.Stats with stable snake_case field names and
// durations in seconds.
type SMTStatsJSON struct {
	Queries      int64   `json:"queries"`
	FastQueries  int64   `json:"fast_queries"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheBytes   int64   `json:"cache_bytes"`
	ModelReuses  int64   `json:"model_reuses"`
	Conflicts    int64   `json:"conflicts"`
	Decisions    int64   `json:"decisions"`
	Clauses      int64   `json:"clauses"`
	SolveSeconds float64 `json:"solve_seconds"`
	ProofBytes   int64   `json:"proof_bytes"`
	Certificates int64   `json:"certificates"`

	SubsumedClauses     int64 `json:"subsumed_clauses,omitempty"`
	StrengthenedClauses int64 `json:"strengthened_clauses,omitempty"`
	VivifiedClauses     int64 `json:"vivified_clauses,omitempty"`

	// Counters of the deleted portfolio race: always 0; kept only so the
	// benchmark module builds.
	Races               int64 `json:"races,omitempty"`
	RaceRacerWins       int64 `json:"race_racer_wins,omitempty"`
	RaceWastedConflicts int64 `json:"race_wasted_conflicts,omitempty"`

	CubeEscalations int64 `json:"cube_escalations,omitempty"`
	CubesGenerated  int64 `json:"cubes_generated,omitempty"`
	CubesRefuted    int64 `json:"cubes_refuted,omitempty"`
	CubesSat        int64 `json:"cubes_sat,omitempty"`
	CubeSteals      int64 `json:"cube_steals,omitempty"`
}

// LatencyJSON summarizes one latency histogram in nanoseconds.
type LatencyJSON struct {
	Count int64 `json:"count"`
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// latencyJSON summarizes h, or returns nil when it is empty.
func latencyJSON(h telemetry.Histogram) *LatencyJSON {
	if h.Count == 0 {
		return nil
	}
	return &LatencyJSON{
		Count: h.Count,
		P50NS: int64(h.Quantile(0.5)),
		P90NS: int64(h.Quantile(0.9)),
		P99NS: int64(h.Quantile(0.99)),
		MaxNS: h.Max,
	}
}

// StatsJSON builds the machine-readable summary of the run.
func (s *Summary) StatsJSON() *StatsJSON {
	out := &StatsJSON{
		Functions:   s.Total,
		Workers:     s.Workers,
		WallSeconds: s.WallTime.Seconds(),
		CPUSeconds:  s.CPUTime.Seconds(),
		Speedup:     s.Speedup(),
		Classes:     s.ClassCounts(),
		SMT: SMTStatsJSON{
			Queries:      s.SMTStats.Queries,
			FastQueries:  s.SMTStats.FastQueries,
			CacheHits:    s.SMTStats.CacheHits,
			CacheMisses:  s.SMTStats.CacheMisses,
			CacheBytes:   s.SMTStats.CacheBytes,
			ModelReuses:  s.SMTStats.ModelReuses,
			Conflicts:    s.SMTStats.SATConflicts,
			Decisions:    s.SMTStats.SATDecisions,
			Clauses:      s.SMTStats.CNFClauses,
			SolveSeconds: s.SMTStats.SolveDuration.Seconds(),
			ProofBytes:   s.SMTStats.ProofBytes,
			Certificates: s.SMTStats.Certificates,

			SubsumedClauses:     s.SMTStats.SubsumedClauses,
			StrengthenedClauses: s.SMTStats.StrengthenedClauses,
			VivifiedClauses:     s.SMTStats.VivifiedClauses,

			Races:               s.SMTStats.Races,
			RaceRacerWins:       s.SMTStats.RaceRacerWins,
			RaceWastedConflicts: s.SMTStats.RaceWastedConflicts,

			CubeEscalations: s.SMTStats.CubeEscalations,
			CubesGenerated:  s.SMTStats.CubesGenerated,
			CubesRefuted:    s.SMTStats.CubesRefuted,
			CubesSat:        s.SMTStats.CubesSat,
			CubeSteals:      s.SMTStats.CubeSteals,
		},
		Certified:  s.Certified,
		CertFailed: s.CertFailed,
	}
	if s.Metrics != nil {
		out.Latency = latencyJSON(s.Metrics.Hist("smt.query"))
		counters, _ := s.Metrics.Snapshot()
		if len(counters) > 0 {
			out.Counters = counters
		}
	}
	return out
}
