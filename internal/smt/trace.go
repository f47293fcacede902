package smt

import (
	"time"

	"repro/internal/telemetry"
)

// This file is the glue between the solver and the telemetry layer: one
// span and one latency observation per CheckSat query, annotated with the
// query's outcome. Everything here is reached only when a Tracer or
// Metrics registry is attached (see CheckSat), so the disabled path never
// pays more than one nil check.

// finishQuery closes the per-query span and records the query's latency.
// before is a snapshot of Stats at query entry; the attribute values are
// the deltas this query contributed.
func (s *Solver) finishQuery(sp *telemetry.Span, start time.Time, before Stats, res Result) {
	d := time.Since(start)
	s.Metrics.Observe("smt.query", d)
	s.Metrics.Add("smt.query."+res.String(), 1)
	// Inprocessing work this query contributed (the ladder's cube.* and
	// portfolio.probe.* counters are emitted in solveLadder as its stages
	// run).
	if n := s.Stats.SubsumedClauses - before.SubsumedClauses; n > 0 {
		s.Metrics.Add("inprocess.subsumed", n)
	}
	if n := s.Stats.StrengthenedClauses - before.StrengthenedClauses; n > 0 {
		s.Metrics.Add("inprocess.strengthened", n)
	}
	if n := s.Stats.VivifiedClauses - before.VivifiedClauses; n > 0 {
		s.Metrics.Add("inprocess.vivified", n)
	}
	if n := s.Stats.EliminatedVars - before.EliminatedVars; n > 0 {
		s.Metrics.Add("inprocess.eliminated", n)
	}
	if sp == nil {
		return
	}
	sp.SetAttr("result", res.String())
	sp.SetAttr("conflicts", s.Stats.SATConflicts-before.SATConflicts)
	if s.Cache != nil {
		sp.SetAttr("cache_hit", s.Stats.CacheHits > before.CacheHits)
	}
	if s.Stats.FastQueries > before.FastQueries {
		sp.SetAttr("fast", true)
	}
	if s.Stats.Certificates > before.Certificates && s.lastCert != "" {
		sp.SetAttr("cert", s.lastCert)
	}
	sp.End()
}
